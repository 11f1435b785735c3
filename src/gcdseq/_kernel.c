/* Compiled modular-chain kernels.
 *
 * Word-sized loop for small moduli, 128-bit multiply path up to 2**63.
 * The dispatcher in ``_backend`` falls back to the pure-Python kernels in
 * ``_kernels_py`` for anything larger; those are the reference these loops
 * must agree with.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;
typedef unsigned __int128 u128;

#define LIMIT (1ULL << 63)

/* Read (t, x) with 0 <= t < 2**63 and 1 <= x < 2**63, else raise ValueError.
 * PyLong_AsUnsignedLongLong raises OverflowError for a negative or oversized
 * int instead of wrapping it (that becomes the ValueError), and TypeError
 * for a non-int, which is passed on. */
static int
parse_domain(PyObject *args, const char *fmt, const char *msg, u64 *t, u64 *x)
{
    PyObject *ot, *ox;
    if (!PyArg_ParseTuple(args, fmt, &ot, &ox))
        return -1;
    *t = PyLong_AsUnsignedLongLong(ot);
    if (!PyErr_Occurred())
        *x = PyLong_AsUnsignedLongLong(ox);
    if (PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (*t < LIMIT && *x != 0 && *x < LIMIT)
        return 0;
    PyErr_SetString(PyExc_ValueError, msg);
    return -1;
}

PyDoc_STRVAR(b_mod_pair_doc,
"b_mod_pair(t, x)\n--\n\n(b(t-1) mod x, b(t) mod x) for 0 <= t, 1 <= x < 2**63.");

static PyObject *
b_mod_pair(PyObject *self, PyObject *args)
{
    u64 t, x, j, nxt, prev = 0, cur;
    if (parse_domain(args, "OO:b_mod_pair",
                     "kernel domain: t >= 0 and 1 <= x < 2**63", &t, &x) < 0)
        return NULL;
    cur = 1 % x;
    if (x < (1ULL << 31) && t < (1ULL << 31)) {
        /* (j+2)*(cur + x - prev) < 2**31 * 2**32 fits in 64 bits */
        for (j = 1; j <= t; j++) {
            nxt = (j + 2) * (cur + x - prev) % x;
            prev = cur;
            cur = nxt;
        }
    }
    else {
        for (j = 1; j <= t; j++) {
            nxt = (u64)((u128)(j + 2) * (cur + x - prev) % x);
            prev = cur;
            cur = nxt;
        }
    }
    return Py_BuildValue("(KK)", prev, cur);
}

PyDoc_STRVAR(factorial_mod_doc,
"factorial_mod(m, x)\n--\n\nm! mod x for 0 <= m, 1 <= x < 2**63; early exit once the product is 0.");

static PyObject *
factorial_mod(PyObject *self, PyObject *args)
{
    u64 m, x, j, r;
    if (parse_domain(args, "OO:factorial_mod",
                     "kernel domain: m >= 0 and 1 <= x < 2**63", &m, &x) < 0)
        return NULL;
    r = 1 % x;
    if (x < (1ULL << 32) && m < (1ULL << 32)) {
        for (j = 2; j <= m && r != 0; j++)
            r = r * j % x;
    }
    else {
        for (j = 2; j <= m && r != 0; j++)
            r = (u64)((u128)r * j % x);
    }
    return PyLong_FromUnsignedLongLong(r);
}

static PyMethodDef kernel_methods[] = {
    {"b_mod_pair", b_mod_pair, METH_VARARGS, b_mod_pair_doc},
    {"factorial_mod", factorial_mod, METH_VARARGS, factorial_mod_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled modular-chain kernels (b-chain and factorial mod x, x < 2**63).",
    0, kernel_methods
};

/* Multi-phase init: the module holds no state, and loading it from a spec
 * does not register it in sys.modules. */
PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModuleDef_Init(&kernel_module);
}
