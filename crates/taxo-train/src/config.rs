//! Trainer and promotion-gate configuration.

use taxo_expand::DetectorConfig;

/// Promotion gate thresholds: a candidate is promoted only if every
/// check passes over the epoch's shadow evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Minimum oracle-approved fraction of judged shadow attachments.
    pub min_precision: f64,
    /// Maximum per-sample shadow scoring latency in microseconds, as
    /// measured by the epoch's [`crate::LatencyProbe`].
    pub max_latency_us: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            min_precision: 0.7,
            max_latency_us: u64::MAX,
        }
    }
}

impl GateConfig {
    /// Parses a `--promote-gate` value: `PRECISION` or
    /// `PRECISION:LATENCY_US` (e.g. `0.7` or `0.7:5000`).
    pub fn parse(spec: &str) -> Result<GateConfig, String> {
        let (prec, lat) = match spec.split_once(':') {
            Some((p, l)) => (p, Some(l)),
            None => (spec, None),
        };
        let min_precision: f64 = prec
            .parse()
            .map_err(|_| format!("bad gate precision {prec:?}"))?;
        if !(0.0..=1.0).contains(&min_precision) {
            return Err(format!("gate precision {min_precision} outside [0, 1]"));
        }
        let max_latency_us = match lat {
            Some(l) => l
                .parse()
                .map_err(|_| format!("bad gate latency {l:?} (want µs)"))?,
            None => u64::MAX,
        };
        Ok(GateConfig {
            min_precision,
            max_latency_us,
        })
    }
}

/// Control-plane configuration. [`TrainConfig::validate`] is called by
/// [`crate::ControlPlane::new`]; invalid values panic there rather than
/// misbehaving silently mid-epoch.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Retrain once the served version has advanced this many versions
    /// past the last retrain base (0 disables retraining entirely).
    pub retrain_every: u64,
    /// Arm the server's shadow tap to mirror 1-in-N score requests
    /// (0 leaves the tap disarmed — epochs then defer on no evidence).
    pub shadow_sample: u64,
    /// Minimum judged shadow attachments for a gate decision; fewer
    /// defers the candidate ([`crate::RejectReason::ShadowStarved`]).
    pub shadow_min: u64,
    /// Fine-tuning hyperparameters; `seed` and `epochs` are taken from
    /// here with the seed re-derived per control epoch.
    pub detector: DetectorConfig,
    pub gate: GateConfig,
    /// Master seed: retrain seeds are derived as `mix(seed, epoch)` and
    /// the shadow tap is armed with it.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            retrain_every: 4,
            shadow_sample: 2,
            shadow_min: 1,
            detector: DetectorConfig::tiny(0x7EA1),
            gate: GateConfig::default(),
            seed: 0x7EA1,
        }
    }
}

impl TrainConfig {
    /// Panics on configurations that cannot make progress.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.gate.min_precision),
            "gate precision outside [0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_parse_accepts_precision_and_latency() {
        let g = GateConfig::parse("0.8").unwrap();
        assert_eq!(g.min_precision, 0.8);
        assert_eq!(g.max_latency_us, u64::MAX);
        let g = GateConfig::parse("0.5:2500").unwrap();
        assert_eq!(g.min_precision, 0.5);
        assert_eq!(g.max_latency_us, 2500);
    }

    #[test]
    fn gate_parse_rejects_nonsense() {
        assert!(GateConfig::parse("1.5").is_err());
        assert!(GateConfig::parse("x").is_err());
        assert!(GateConfig::parse("0.7:fast").is_err());
    }
}
