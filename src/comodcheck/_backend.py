"""The kernel module ``exactlin`` calls, bound in one place so that a
tracer can wrap its functions for every caller at once."""

from . import _core_py as core
