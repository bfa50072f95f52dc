"""Heterogeneous-query camera-radar fusion decoder on synthetic scenes."""

from .decoder import DecoderConfig, LayerOutput, SceneFeatures, decode
from .numkernel import (AttentionMask, BLOCKED, MhaWeights, affine,
                        bilinear_sample, masked_softmax, multi_head_attention)
from .qinit import (QuerySet, TYPE_IMG, TYPE_RAD, TYPE_W, concat_query_sets,
                    init_image_queries, init_radar_queries, init_world_queries)
from .qmix import (CrossTypeLink, TypeAttentionStats, attention_type_stats,
                   build_cross_type_mask, extract_top_links, qmix_attention)
from .qswap import (QSwapConfig, SampleBank, SampleSet, normalize_sample_scores,
                    score_shared_points, select_neighbors, swap_samples)
from .scene import (CameraRig, FeatureGrid, GridConfig, PvFeatureMap,
                    RadarPointCloud, RadarSimConfig, Scene, SceneConfig,
                    SceneObject, encode_radar_bev, generate_scene,
                    project_to_view, render_image_bev, render_pv_features,
                    simulate_radar_points)
from .weights_io import DecoderWeights, init_weights, load_weights, save_weights

__version__ = "0.1.0"
