"""boxcert: ReLU networks whose interval propagation brackets a target range.

The package has five layers: interval arithmetic (``intervals``), a network IR
with concrete/abstract evaluation (``network``, ``netio``), expression parsing
with certified Lipschitz bounds and a sampling oracle (``expr``, ``oracle``),
the constructive builder (``slicing``, ``grids``, ``gadgets``, ``construct``),
and the verification harness plus CLI (``verify``, ``cli``, ``fixtures``).
"""

from .construct import (
    BuildBudget,
    BuildBudgetError,
    BuildReport,
    build_certified_network,
    build_slice_network,
    grid_resolution,
)
from .expr import FuncExpr, ParseError, parse_expr, parse_func, to_source
from .fixtures import FIXTURES, fig2_n1, fig2_n2
from .grids import GridSpec
from .intervals import BoxRegion, Interval
from .netio import NetworkFormatError, deserialize, load, save, serialize
from .network import (
    Network,
    NetworkBuilder,
    eval_abstract,
    eval_concrete,
    stats,
)
from .slicing import SliceSpec, make_slice_spec
from .verify import RunConfig, VerificationReport, verify_network

__version__ = "0.1.0"
