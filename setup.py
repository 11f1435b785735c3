from setuptools import Extension, setup

# optional=True: without a working C compiler the build warns and goes on,
# and the package runs on the pure-Python kernels.
setup(
    ext_modules=[
        Extension("gcdseq._kernel", ["src/gcdseq/_kernel.c"], optional=True),
    ]
)
