"""Cost-engineering toolkit for the MobiVSR family of lip-reading networks.

The package couples a reference inference engine with instrumented operation
counters to an analytical cost model (parameters, memory accesses, FLOPs),
energy and CO2 estimation, int8 post-training quantization, and file formats
for graphs, weights and preprocessed clips.
"""

from .arch import (
    CHANNEL_PLAN_CANDIDATES,
    CLIP_INPUT_SHAPE,
    DEFAULT_CHANNEL_PLAN,
    IMPACT_OUTLIERS,
    PUBLISHED_IMPACT,
    PUBLISHED_MODELS,
    ChannelPlan,
    LipResBlock,
    ReferencePreset,
    build_lipres,
    build_mobivsr,
    calibrate_channel_plan,
    published_models,
)
from .costs import (
    CostReport,
    EfficiencyRatios,
    LayerCost,
    aggregate,
    efficiency_ratios,
    exact_accesses_of,
    flops_of,
    mem_access_of,
    params_of,
)
from .energy import (
    DEFAULT_CARBON_FACTOR,
    DEFAULT_ENERGY_TABLE,
    CarbonFactor,
    EnergyTable,
    ImpactReport,
    co2_per_inference,
    energy_per_inference,
    impact_report,
)
from .engine import RunResult, counted_forward, init_weights, run_graph
from .errors import (
    DimensionMismatch,
    GraphValidationError,
    MissingDimension,
    MobiVSRError,
    PayloadBoundsError,
    SchemaError,
    ValidationError,
)
from .graph import (
    ActivationPlan,
    LayerGraph,
    LayerSpec,
    TilePlan,
    layer_output_shape,
    node_inputs,
    plan_activations,
    plan_tiles,
    shape_infer,
    weight_shapes,
)
from .model_io import (
    Clip,
    load_clip_dir,
    parse_graph,
    parse_weights,
    preprocess_clip,
    read_clip,
    read_graph,
    read_weights,
    serialize_graph,
    serialize_weights,
    write_clip,
    write_graph,
    write_ppm,
    write_weights,
)
from .quantize import quantize_tensor, quantize_weights
from .tensor import CounterLedger, QuantParams, Tensor

__version__ = "0.1.0"
