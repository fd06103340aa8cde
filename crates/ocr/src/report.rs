//! Speed-test report structures.
//!
//! §4.2: *"The test report screenshots are across test providers like Ookla,
//! Fast (powered by Netflix), Starlink itself, and others. We extract uplink
//! speed, downlink speed, latency information, etc. using Azure's Optical
//! Character Recognition."* [`SpeedTestReport`] is the ground truth behind
//! one screenshot; the [`crate::render`](mod@crate::render) module lays it out provider-style,
//! [`crate::noise`] degrades it like a photographed screen, and
//! [`crate::extract`](mod@crate::extract) recovers the fields.

use analytics::time::Date;
use serde::{Deserialize, Serialize};

/// Speed-test provider whose layout the screenshot mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provider {
    /// Speedtest by Ookla.
    Ookla,
    /// Fast.com (Netflix).
    Fast,
    /// The Starlink app's built-in test.
    StarlinkApp,
    /// Measurement Lab NDT style test.
    MLab,
}

impl Provider {
    /// All providers.
    pub const ALL: [Provider; 4] = [
        Provider::Ookla,
        Provider::Fast,
        Provider::StarlinkApp,
        Provider::MLab,
    ];

    /// Rough popularity mix among shared screenshots.
    pub fn mixture_weight(self) -> f64 {
        match self {
            Provider::Ookla => 0.55,
            Provider::Fast => 0.20,
            Provider::StarlinkApp => 0.18,
            Provider::MLab => 0.07,
        }
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Provider::Ookla => "Speedtest by Ookla",
            Provider::Fast => "FAST.com",
            Provider::StarlinkApp => "Starlink",
            Provider::MLab => "M-Lab NDT",
        }
    }
}

/// Ground-truth content of one screenshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedTestReport {
    /// Provider whose layout is rendered.
    pub provider: Provider,
    /// Test date.
    pub date: Date,
    /// Download speed (Mbps).
    pub downlink_mbps: f64,
    /// Upload speed (Mbps).
    pub uplink_mbps: f64,
    /// Latency (ms).
    pub latency_ms: f64,
}

/// Fields recovered from a screenshot by the extractor. `None` means the
/// field could not be recovered confidently.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExtractedReport {
    /// Recovered download speed (Mbps, unit-normalised).
    pub downlink_mbps: Option<f64>,
    /// Recovered upload speed (Mbps, unit-normalised).
    pub uplink_mbps: Option<f64>,
    /// Recovered latency (ms).
    pub latency_ms: Option<f64>,
    /// Provider guessed from layout cues.
    pub provider: Option<Provider>,
}

impl ExtractedReport {
    /// Number of recovered numeric fields (0–3).
    pub fn fields_recovered(&self) -> usize {
        [
            self.downlink_mbps.is_some(),
            self.uplink_mbps.is_some(),
            self.latency_ms.is_some(),
        ]
        .iter()
        .filter(|b| **b)
        .count()
    }

    /// Whether the primary field of the Fig. 7 analysis (downlink) was
    /// recovered.
    pub fn has_downlink(&self) -> bool {
        self.downlink_mbps.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_weights_sum_to_one() {
        let s: f64 = Provider::ALL.iter().map(|p| p.mixture_weight()).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extracted_report_counting() {
        let mut e = ExtractedReport::default();
        assert_eq!(e.fields_recovered(), 0);
        assert!(!e.has_downlink());
        e.downlink_mbps = Some(100.0);
        e.latency_ms = Some(40.0);
        assert_eq!(e.fields_recovered(), 2);
        assert!(e.has_downlink());
    }
}
