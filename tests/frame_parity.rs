//! Record-walk / kernel-scan parity suite.
//!
//! Every §3 answer has two production paths that must agree to the bit:
//! the dataset entry points (`correlate::engagement_curve`, …,
//! `predict::train_and_evaluate`) walk `SessionRecord`s with the same
//! record walk the incremental views advance with, and the `*_frame`
//! twins the service answers cold with stream [`usaas::SessionFrame`]
//! columns through the branchless kernels. Both feed the same values in
//! the same row order into the same finishing arithmetic, so every
//! floating-point operation happens on the same values in the same
//! sequence. These tests pin that contract on a seeded dataset across
//! every sweep/engagement combination, plus the empty-dataset and
//! single-session edges.

use conference::dataset::{generate, DatasetConfig};
use conference::records::{CallDataset, EngagementMetric, NetworkMetric};
use std::sync::OnceLock;
use usaas::{correlate, predict, FeatureSet, SessionFrame};

fn dataset() -> &'static CallDataset {
    static DS: OnceLock<CallDataset> = OnceLock::new();
    // Elevated feedback rate so the MOS paths have enough rated sessions.
    DS.get_or_init(|| {
        let mut sim = conference::CallSimulator::default();
        sim.feedback.rate = 0.2;
        conference::dataset::generate_with(&DatasetConfig::small(3000, 0x9A21), &sim)
    })
}

fn frame() -> &'static SessionFrame {
    static F: OnceLock<SessionFrame> = OnceLock::new();
    F.get_or_init(|| SessionFrame::from_dataset(dataset(), 4))
}

/// Worker counts the suite sweeps. The kernel scans are sequential and
/// take no worker count, so each sweep re-asserts one fixed answer.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

#[test]
fn engagement_curves_are_bit_identical() {
    for sweep in NetworkMetric::ALL {
        for engagement in EngagementMetric::ALL {
            let reference = correlate::engagement_curve(dataset(), sweep, engagement, 8, 8)
                .expect("reference curve");
            for workers in WORKER_COUNTS {
                let columnar = correlate::engagement_curve_frame(frame(), sweep, engagement, 8, 8)
                    .expect("frame curve");
                assert_eq!(
                    reference, columnar,
                    "curve mismatch: sweep {sweep:?} engagement {engagement:?} workers {workers}"
                );
            }
        }
    }
}

#[test]
fn compounding_grids_are_bit_identical() {
    for bins in [4, 5] {
        for engagement in EngagementMetric::ALL {
            let reference = correlate::compounding_grid(dataset(), engagement, bins, 5)
                .expect("reference grid");
            for workers in WORKER_COUNTS {
                let columnar = correlate::compounding_grid_frame(frame(), engagement, bins, 5)
                    .expect("frame grid");
                assert_eq!(
                    reference, columnar,
                    "grid mismatch: engagement {engagement:?} bins {bins} workers {workers}"
                );
            }
        }
    }
}

#[test]
fn platform_curves_are_bit_identical() {
    for sweep in [NetworkMetric::LatencyMs, NetworkMetric::LossPct] {
        let reference =
            correlate::platform_curves(dataset(), sweep, EngagementMetric::Presence, 4, 5)
                .expect("reference platform curves");
        for workers in WORKER_COUNTS {
            let columnar =
                correlate::platform_curves_frame(frame(), sweep, EngagementMetric::Presence, 4, 5)
                    .expect("frame platform curves");
            assert_eq!(
                reference, columnar,
                "platform curves mismatch: sweep {sweep:?} workers {workers}"
            );
        }
    }
}

#[test]
fn mos_paths_are_bit_identical() {
    for engagement in EngagementMetric::ALL {
        let reference =
            correlate::mos_by_engagement(dataset(), engagement, 4, 3).expect("reference MOS curve");
        let columnar =
            correlate::mos_by_engagement_frame(frame(), engagement, 4, 3).expect("frame MOS curve");
        assert_eq!(reference, columnar, "MOS curve mismatch: {engagement:?}");
    }
    let reference = correlate::mos_correlations(dataset()).expect("reference ranking");
    let columnar = correlate::mos_correlations_frame(frame()).expect("frame ranking");
    assert_eq!(reference.len(), columnar.len());
    for ((m_ref, r_ref), (m_col, r_col)) in reference.iter().zip(&columnar) {
        assert_eq!(m_ref, m_col, "ranking order mismatch");
        assert_eq!(
            r_ref.to_bits(),
            r_col.to_bits(),
            "correlation bits mismatch for {m_ref:?}"
        );
    }
}

#[test]
fn predictor_evaluations_are_bit_identical() {
    for set in [
        FeatureSet::NetworkOnly,
        FeatureSet::EngagementOnly,
        FeatureSet::Full,
    ] {
        let (ref_model, ref_eval) =
            predict::train_and_evaluate(dataset(), set, 4).expect("reference predictor");
        let (frame_model, frame_eval) =
            predict::train_and_evaluate_frame(frame(), set, 4).expect("frame predictor");
        assert_eq!(ref_model, frame_model, "model mismatch for {set:?}");
        assert_eq!(ref_eval, frame_eval, "evaluation mismatch for {set:?}");
    }
}

#[test]
fn empty_dataset_edges_agree() {
    let empty = CallDataset::default();
    let empty_frame = SessionFrame::from_dataset(&empty, 4);
    assert!(empty_frame.is_empty());
    for workers in WORKER_COUNTS {
        let reference = correlate::engagement_curve(
            &empty,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            6,
            8,
        );
        let columnar = correlate::engagement_curve_frame(
            &empty_frame,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            6,
            8,
        );
        assert_eq!(
            format!("{reference:?}"),
            format!("{columnar:?}"),
            "empty-dataset curve outcome must match (workers {workers})"
        );
        let reference = correlate::compounding_grid(&empty, EngagementMetric::Presence, 4, 5);
        let columnar =
            correlate::compounding_grid_frame(&empty_frame, EngagementMetric::Presence, 4, 5);
        assert_eq!(format!("{reference:?}"), format!("{columnar:?}"));
    }
    assert_eq!(
        format!("{:?}", correlate::mos_correlations(&empty)),
        format!("{:?}", correlate::mos_correlations_frame(&empty_frame))
    );
    assert_eq!(
        format!(
            "{:?}",
            predict::train_and_evaluate(&empty, FeatureSet::Full, 4).err()
        ),
        format!(
            "{:?}",
            predict::train_and_evaluate_frame(&empty_frame, FeatureSet::Full, 4).err()
        )
    );
}

#[test]
fn single_session_edges_agree() {
    // One call fans out into one session per participant; truncate to a
    // true single-session dataset.
    let mut single = generate(&DatasetConfig::small(1, 0x51));
    single.sessions.truncate(1);
    assert_eq!(single.len(), 1);
    let single_frame = SessionFrame::from_dataset(&single, 4);
    assert_eq!(single_frame.len(), 1);
    for workers in WORKER_COUNTS {
        for sweep in NetworkMetric::ALL {
            let reference =
                correlate::engagement_curve(&single, sweep, EngagementMetric::Presence, 4, 1);
            let columnar = correlate::engagement_curve_frame(
                &single_frame,
                sweep,
                EngagementMetric::Presence,
                4,
                1,
            );
            assert_eq!(
                format!("{reference:?}"),
                format!("{columnar:?}"),
                "single-session curve outcome must match (sweep {sweep:?} workers {workers})"
            );
        }
        let reference = correlate::platform_curves(
            &single,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            4,
            1,
        );
        let columnar = correlate::platform_curves_frame(
            &single_frame,
            NetworkMetric::LatencyMs,
            EngagementMetric::Presence,
            4,
            1,
        );
        assert_eq!(format!("{reference:?}"), format!("{columnar:?}"));
    }
}
