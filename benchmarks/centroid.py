"""A small deterministic patch classifier, so the audio front end runs.

The package's own classifiers either replay recorded scores (and skip the
log-mel patch) or are left to deployments.  This one reads the 96x64
log-mel patch the vocal cascade builds: it averages the patch over time
into 64 band energies and scores the distance to one centroid per class.
It is fitted from synthetic sessions of a fixed training seed, so every
run of the benchmark uses the same classifier.
"""

from __future__ import annotations

import json

import numpy as np

from musereact import dsp, harness, vocal
from musereact.core import PipelineConfig, ReactionLabel, segment_session

#: Class names; relax_rank scans up to five of them.
CLASSES = ("Singing", "Whistling", "Speech", "Silence", "Typing")

TRAINING_SEED = 20230406


def band_energies(patch: np.ndarray) -> np.ndarray:
    return np.asarray(patch, dtype=float).mean(axis=0)


class CentroidPatchClassifier(vocal.SoundEventClassifier):
    """Nearest-centroid scores over mean log-mel band energies.

    Scores are ``softmax(-distance / temperature)`` over the class
    centroids, so a patch close to one centroid gets a confident, large
    margin score and a patch between two gets a low margin.
    """

    needs_patch = True

    def __init__(self, centroids: np.ndarray, temperature: float):
        self.centroids = np.asarray(centroids, dtype=float)
        self.temperature = float(temperature)
        if self.centroids.shape != (len(CLASSES), dsp.MEL_BANDS):
            raise ValueError(f"centroids must be {(len(CLASSES), dsp.MEL_BANDS)}")

    def classify(self, patch, index):
        distance = np.linalg.norm(self.centroids - band_energies(patch), axis=1)
        z = -(distance - distance.min()) / self.temperature
        scores = np.exp(z)
        return vocal.ScoreVector(CLASSES, scores / scores.sum())

    @classmethod
    def fit(cls, config: PipelineConfig, seed: int = TRAINING_SEED,
            sessions_per_place: int = 1, duration_s: int = 40) -> "CentroidPatchClassifier":
        """Fit centroids on synthetic sessions in every place.

        Reaction seconds train the singing and whistling centroids; the
        other seconds train speech (loud enough to pass the sound
        prefilter) or silence.  ``Typing`` takes the movement-active but
        quiet seconds, which the sound prefilter would normally settle.
        """
        features = {name: [] for name in CLASSES}
        for k, place in enumerate(sorted(harness.PLACE_PROFILES)):
            specs = harness.make_vocal_corpus(
                sessions_per_place, place, base_seed=seed + k, duration_s=duration_s)
            for spec in specs:
                generated = harness.generate_session(spec)
                for segment in segment_session(generated.session):
                    patch = dsp.log_mel_patch(vocal.preprocess_segment_audio(
                        segment.audio, segment.audio_rate, config))
                    features[_class_of(segment, generated.vocal_truth, config)].append(
                        band_energies(patch))
        empty = [name for name in CLASSES if not features[name]]
        if empty:
            raise ValueError(f"no training seconds for {', '.join(empty)}")
        centroids = np.array([np.mean(features[name], axis=0) for name in CLASSES])
        # One temperature for all classes: a fifth of the median distance
        # between centroids, so well-separated patches score confidently.
        gaps = np.linalg.norm(centroids[:, None] - centroids[None, :], axis=2)
        temperature = float(np.median(gaps[np.triu_indices(len(CLASSES), 1)])) / 5.0
        return cls(centroids, temperature)

    def to_json(self) -> str:
        return json.dumps({"centroids": self.centroids.tolist(),
                           "temperature": self.temperature}) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CentroidPatchClassifier":
        obj = json.loads(text)
        return cls(np.array(obj["centroids"]), obj["temperature"])


def _class_of(segment, vocal_truth, config) -> str:
    label = vocal_truth[segment.index]
    if label is ReactionLabel.SINGING_HUMMING:
        return "Singing"
    if label is ReactionLabel.WHISTLING:
        return "Whistling"
    if vocal.vocal_sound_prefilter(segment.audio, config.sound_db_threshold,
                                   config.db_calibration):
        quiet_moving = not vocal.vocal_motion_prefilter(
            segment.accel, config.vocal_movement_low_g, config.vocal_movement_high_g)
        return "Typing" if quiet_moving else "Silence"
    return "Speech"
