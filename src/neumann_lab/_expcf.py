"""Near-best rational approximation of exp(-x) on [0, infinity).

The table below is a type (14,14) Caratheodory-Fejer approximant in strictly
proper pole/residue form,

    exp(-x) ~= Re sum_j  RESIDUES[j] / (x - POLES[j]),

with uniform error below 5e-14 on the whole half line and O(1/x) decay
beyond it.  Poles come in conjugate pairs and keep distance > 10 from
[0, infinity), so shifted systems (tL - p) stay uniformly well conditioned
for every t > 0 and every positive semidefinite L.

The constants were produced by the standard construction (Chebyshev
transplant of exp on the unit circle, SVD of the Hankel matrix of Chebyshev
coefficients, Blaschke correction) and are pinned here for reproducibility;
``tests/test_semigroup.py`` revalidates the approximation error against
``exp`` on a dense grid.
"""

from __future__ import annotations

__all__ = ["POLES", "RESIDUES", "CF_UNIFORM_ERROR"]

POLES = (
    complex(-5.623171534758011, -1.1940664287007021),
    complex(-5.623171534758011, 1.1940664287007021),
    complex(-5.0893745648738005, -3.5888160956024366),
    complex(-5.0893745648738005, 3.5888160956024366),
    complex(-3.99340042964899, -6.004818060140396),
    complex(-3.99340042964899, 6.004818060140396),
    complex(-2.269816525854417, -8.461717806879609),
    complex(-2.269816525854417, 8.461717806879609),
    complex(0.20872377764756553, -10.991232026330678),
    complex(0.20872377764756553, 10.991232026330678),
    complex(3.7032391601781884, -13.656333463712347),
    complex(3.7032391601781884, 13.656333463712347),
    complex(8.897735413180197, -16.630935208424827),
    complex(8.897735413180197, 16.630935208424827),
)

RESIDUES = (
    complex(27.87616229112013, 102.15000629300857),
    complex(27.87616229112009, -102.15000629300857),
    complex(-46.93490458692081, -45.644543838876444),
    complex(-46.934904586920815, 45.64454383887645),
    complex(23.498979419093445, 5.808219208291684),
    complex(23.498979419093445, -5.808219208291684),
    complex(-4.807233308937508, 1.3211122031317175),
    complex(-4.807233308937505, -1.3211122031317168),
    complex(0.3763633673443187, -0.33520468312265106),
    complex(0.3763633673443189, 0.33520468312265106),
    complex(-0.00943872056463996, 0.017185736312422026),
    complex(-0.009438720564639954, -0.017185736312422026),
    complex(7.153878175387524e-05, -0.00014361901813708962),
    complex(7.153878175387529e-05, 0.00014361901813708962),
)

# measured sup-norm defect of the table on [0, inf)
CF_UNIFORM_ERROR = 5e-14

