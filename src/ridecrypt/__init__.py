"""Block-masked ride-matching protocol simulator and its service-provider
location-recovery analysis.

The library is organized by pipeline stage: ``roadnet`` builds networks and
embeds nodes, ``codec`` handles block decomposition and payload bytes,
``crypto`` provides the PRF layer, ``protocol`` the honest matching flow,
``attack`` the passive recovery, and ``harness`` reproducible experiments.
"""

from .attack import (
    DifferenceLedger,
    RecoveryReport,
    deanonymize,
    embedding_index,
    recover_block,
    recover_driver_vectors,
    recover_rider_vector,
    run_attack,
)
from .codec import (
    BlockParams,
    decode_signed,
    decompose,
    encode_signed,
    recompose,
    weighted_difference,
)
from .crypto import (
    PRF_CONSTRUCTION,
    SystemKeys,
    encode_message,
    issue_system_keys,
    prf_f,
    prf_h,
)
from .errors import CapacityError, LedgerFault, PrfCollisionError, ProtocolFault
from .harness import (
    EXPECTED_DRIVERS,
    ExperimentConfig,
    Table1Row,
    expected_coverage_draws,
    run_experiment,
    run_sessions,
    run_synthetic_sessions,
    run_table1,
)
from .protocol import (
    DriverResponse,
    RideContext,
    RiderRequest,
    ServiceProvider,
    driver_encrypt,
    rider_encrypt,
    sp_compute_distance,
    sp_match_block,
)
from .roadnet import (
    RneVector,
    RoadNetwork,
    generate_grid_network,
    load_network,
    parse_network,
    rne_distance,
)

__version__ = "0.1.0"
