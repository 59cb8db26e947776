"""Exact-arithmetic laboratory for subgroups of the circle group that are
characterized by a sequence of vanishing multiples, in the plain or the
density-statistical sense.

The package works with an arithmetic base sequence a_0 = 1, a_k = b_k a_{k-1}
and its derived enumeration d_1 < d_2 < ... of the proper multiples r a_k,
1 <= r < b_{k+1}. Points of the circle carry canonical mixed-radix digits;
every reported bound is an exact fraction obtained from finite digit windows,
never a float.
"""

__version__ = "0.1.0"
