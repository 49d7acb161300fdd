"""df_arena: benchmarking engine for audio deepfake detection.

Parses dataset protocols and per-system score files, computes the detection
metric stack (EER, pooled EER, AUC, accuracy, F1), runs cross-dataset
correlation analysis, applies seeded noise/reverberation augmentation to
16 kHz corpora, and assembles ranked leaderboards.
"""

__version__ = "0.1.0"
