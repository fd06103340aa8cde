//! The two serving targets the workloads run: a single durable
//! `UsaasService` and a durable `PartitionedService`, behind one trait so
//! the schedule is written once.

use conference::records::CallDataset;
use social::post::Forum;
use std::path::Path;
use usaas::{
    Answer, JournalStats, PartitionedService, PersistError, Query, ServeTarget, UsaasError,
    UsaasService,
};

/// Normalisation workers per service, one per core of the reference box.
pub const WORKERS: usize = 2;

/// Partition count of the `cluster` workload.
pub const PARTITIONS: usize = 4;

/// Everything the schedule needs from a serving target beyond the
/// daemon's own [`ServeTarget`] interface.
pub trait Served: ServeTarget + Sized {
    /// True for the partitioned cluster.
    const PARTITIONED: bool;

    /// Worker-pool hand-offs an accepted item makes in one ingest run,
    /// as counted by `IngestReport::fed`: a cluster folds the router's
    /// validation pass and the owning partition's pass into one report.
    fn fed_passes() -> usize {
        1 + usize::from(Self::PARTITIONED)
    }
    /// Build a durable target in `dir` from the resident base.
    fn durable(ds: CallDataset, forum: Forum, dir: &Path) -> Result<Self, PersistError>;
    /// Reopen a durable target after a crash.
    fn reopen(dir: &Path) -> Result<Self, PersistError>;
    /// Build an in-memory twin from the resident base.
    fn memory(ds: CallDataset, forum: Forum) -> Self;
    /// Serve one question (memo → view → fresh routing).
    fn ask(&self, q: &Query) -> Result<Answer, UsaasError>;
    /// Answer one question from scratch on the current generation.
    fn fresh(&self, q: &Query) -> Result<Answer, UsaasError>;
    /// Answer-cache hits and misses of the current generation.
    fn cache_counts(&self) -> (usize, usize);
    /// Repairs the last open had to make.
    fn warnings(&self) -> Vec<String>;
    /// The root log's last seq (0 without one) and each persist unit's
    /// journal stats.
    fn journals(&self) -> (u64, Vec<JournalStats>);
    /// The target as a single service, when it is one.
    fn as_single(&self) -> Option<&UsaasService>;
}

impl Served for UsaasService {
    const PARTITIONED: bool = false;
    fn durable(ds: CallDataset, forum: Forum, dir: &Path) -> Result<Self, PersistError> {
        UsaasService::build_persistent(ds, forum, WORKERS, dir)
    }
    fn reopen(dir: &Path) -> Result<Self, PersistError> {
        UsaasService::open_or_recover(dir, WORKERS)
    }
    fn memory(ds: CallDataset, forum: Forum) -> Self {
        UsaasService::build(ds, forum, WORKERS)
    }
    fn ask(&self, q: &Query) -> Result<Answer, UsaasError> {
        self.query(q)
    }
    fn fresh(&self, q: &Query) -> Result<Answer, UsaasError> {
        self.snapshot().answer_fresh(q)
    }
    fn cache_counts(&self) -> (usize, usize) {
        (self.cache_hits(), self.cache_misses())
    }
    fn warnings(&self) -> Vec<String> {
        self.health().recovery_warnings
    }
    fn journals(&self) -> (u64, Vec<JournalStats>) {
        (0, UsaasService::journal_stats(self).into_iter().collect())
    }
    fn as_single(&self) -> Option<&UsaasService> {
        Some(self)
    }
}

impl Served for PartitionedService {
    const PARTITIONED: bool = true;
    fn durable(ds: CallDataset, forum: Forum, dir: &Path) -> Result<Self, PersistError> {
        PartitionedService::build_persistent(ds, forum, PARTITIONS, WORKERS, dir)
    }
    fn reopen(dir: &Path) -> Result<Self, PersistError> {
        PartitionedService::open_or_recover(dir, WORKERS)
    }
    fn memory(ds: CallDataset, forum: Forum) -> Self {
        PartitionedService::build(ds, forum, PARTITIONS, WORKERS)
    }
    fn ask(&self, q: &Query) -> Result<Answer, UsaasError> {
        self.query(q)
    }
    fn fresh(&self, q: &Query) -> Result<Answer, UsaasError> {
        self.answer_fresh(q)
    }
    fn cache_counts(&self) -> (usize, usize) {
        (self.cache_hits(), self.cache_misses())
    }
    fn warnings(&self) -> Vec<String> {
        self.health().recovery_warnings
    }
    fn journals(&self) -> (u64, Vec<JournalStats>) {
        let root = self.root_journal_stats().map_or(0, |j| j.last_seq);
        let parts = self
            .health()
            .partitions
            .iter()
            .filter_map(|p| p.journal)
            .collect();
        (root, parts)
    }
    fn as_single(&self) -> Option<&UsaasService> {
        None
    }
}
