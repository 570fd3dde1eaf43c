"""Traffic grid-movie forecasting: storage, clips, U-Net, baselines, evaluation."""

from .movie_store import MovieFormatError, MovieHeader, MovieReader, ingest, open_movie
from .dataset import (
    Clip,
    ClipSpec,
    enumerate_clips,
    index_movies,
    load_clip,
    synth_movie,
)
from .baselines import (
    persistence,
    predict_slot_average,
    time_slot_average,
    zero_baseline,
)
from .masks import Mask, build_mask
from .tensor_nn import UNetConfig, UNetParams, init_params, load_params, ringed_empty, save_params, unet_forward
from .trainer import Metrics, SGDConfig, evaluate, lr_schedule, predict, sgd_step, train

__version__ = "0.1.0"
