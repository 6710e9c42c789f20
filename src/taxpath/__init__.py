"""Hierarchical tax-code prediction over a multi-level code taxonomy.

A feature-gating mixture-of-experts classifier predicts a code at every
taxonomy level; training combines hierarchical cross-entropy with a
consistency signal distilled from an expert judge; inference selects the
most confident leaf and can reconstruct the full path from it.
"""

from .dataset import ProductRecord, ScoredRecord, SplitSpec, cleanse, normalize_title, split
from .encoder import EncoderConfig
from .infer import PredictionPath, Predictions, predict_batch, repath, select_prediction
from .metrics import EvalPair, EvalReport, evaluate, macro_f1, micro_f1
from .moe import MoEConfig, MoEModel, init_model, load_checkpoint, save_checkpoint
from .pipeline import PipelineConfig, run_pipeline
from .semantic import ConsistencyLabel, JudgeModel, annotate_corpus, distill_judge, oracle_judge
from .synth import SynthConfig, synth_corpus
from .taxonomy import Taxonomy, TaxNode, ancestors, is_valid_path, load_taxonomy
from .train import LossWeights, TrainConfig, fit, hierarchical_loss, level_loss, semantic_loss, total_loss

__version__ = "0.1.0"

__all__ = [
    "ProductRecord", "ScoredRecord", "SplitSpec", "cleanse", "normalize_title", "split",
    "EncoderConfig",
    "PredictionPath", "Predictions", "predict_batch", "repath", "select_prediction",
    "EvalPair", "EvalReport", "evaluate", "macro_f1", "micro_f1",
    "MoEConfig", "MoEModel", "init_model",
    "load_checkpoint", "save_checkpoint",
    "PipelineConfig", "run_pipeline",
    "ConsistencyLabel", "JudgeModel", "annotate_corpus", "distill_judge", "oracle_judge",
    "SynthConfig", "synth_corpus",
    "Taxonomy", "TaxNode", "ancestors", "is_valid_path", "load_taxonomy",
    "LossWeights", "TrainConfig", "fit", "hierarchical_loss", "level_loss",
    "semantic_loss", "total_loss",
    "__version__",
]
