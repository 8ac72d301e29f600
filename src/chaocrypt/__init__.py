"""Text encryption from a hybrid 2D chaotic map, with a genetic-algorithm
key optimizer and the chaos diagnostics used to characterize the map."""

from .analysis import (
    DEFAULT_KEYSPACE_RANGES,
    LengthTrialResult,
    LyapunovResult,
    SweepSpec,
    bifurcation_sweep,
    fitness_landscape,
    keyspace_size,
    length_experiment,
    lyapunov_spectrum,
    sample_text,
    sensitivity_probe,
    summarize_lengths,
)
from .chaos import (
    A_MAX,
    A_MIN,
    B_MAX,
    B_MIN,
    MapParams,
    MapState,
    derive_initial_state,
    generate_sequence,
)
from .cipher import (
    KeyRecord,
    build_keystream,
    compose_key,
    decrypt,
    encrypt,
    rank_descending,
    xor_apply,
)
from .errors import (
    ChaocryptError,
    FormatError,
    InvalidInput,
    NumericalError,
)
from .ga import (
    EvolutionReport,
    FitnessEvaluator,
    GaConfig,
    Genome,
    crossover,
    evolve,
    fitness,
    jaccard_index,
    mutate,
    select_top,
    spawn_population,
)
from .keyfile import read_key_file, write_key_file

__version__ = "0.1.0"
