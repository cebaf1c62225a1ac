/* Count the GIL releases of each thread: a shared object preloaded into a
 * python whose interpreter is a shared library (Py_ENABLE_SHARED), so that
 * every PyEval_SaveThread -- Py_BEGIN_ALLOW_THREADS in NumPy, hashlib,
 * ctypes' CDLL calls -- resolves here first and is counted before it runs
 * the interpreter's own.
 *
 *     cc -shared -fPIC -O2 -o gil_releases.so gil_releases.c -ldl
 *     LD_PRELOAD=./gil_releases.so python -c '...'
 *
 * Python reads the calling thread's count through a handle that keeps the
 * GIL (ctypes.PyDLL(None).gil_releases), so the read counts nothing. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdint.h>

static _Thread_local int64_t count;

void *PyEval_SaveThread(void)
{
    static void *(*real)(void);
    if (!real)
        real = (void *(*)(void))dlsym(RTLD_NEXT, "PyEval_SaveThread");
    count++;
    return real();
}

/* Releases made by the calling thread so far. */
int64_t gil_releases(void)
{
    return count;
}
