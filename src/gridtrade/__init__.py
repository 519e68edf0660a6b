"""Coordinated multilateral trading for stochastic electricity markets.

Self-interested participant groups propose balanced scenario-contingent
trades; a system operator verifies them against a DC network model, curtails
where necessary, and announces binding loading vectors.  The package also
provides the centralised dispatch benchmark with dual-based nodal prices, a
competitive-equilibrium checker, bilateral decomposition on radial networks,
and robust curtailment of interval-valued trades.
"""

from .dispatch import (
    DispatchSolution,
    EquilibriumReport,
    check_arrow_debreu,
    lmp_from_marginals,
    solve_dispatch,
    welfare_gap,
)
from .market import Market, two_bus_market
from .network import (
    Line,
    LoadingMatrix,
    Network,
    binding_lines,
    build_loading_matrix,
    check_feasible,
    curtailment_factor,
    is_feasible_direction,
)
from .participants import (
    Participant,
    ScenarioSet,
    UtilityFunction,
    evaluate_utility,
)
from .proposer import ProposerStrategy, find_worthy_fd_trade, make_proposer
from .robust import (
    IntervalState,
    IntervalTrade,
    accept_interval_trade,
    nodal_interval,
    robust_curtailment_factor,
)
from .trading import (
    Certificate,
    EngineConfig,
    Trade,
    TradeRecord,
    TradingResult,
    TradingState,
    announce,
    is_worthy,
    run_trading,
    so_step,
    validate_trade,
)
from .tree import (
    BilateralTrade,
    RedundancyCertificate,
    decompose_conformal,
    decompose_profitable,
    decompose_sequential,
    split_nonlinear,
)

__version__ = "0.1.0"
