//! N-gram counting over corpora — the NLTK substitute.
//!
//! §4.1: the pipeline generates per-day word clouds and takes the *top 3
//! unigrams* as search keywords. This module counts stop-word-filtered
//! unigrams and bigrams with optional per-document weights (the emerging-
//! topic miner weighs documents by upvotes + comments).

use crate::tokenize::content_words;
use std::collections::HashMap;

/// A frequency table of n-grams.
#[derive(Debug, Clone, Default)]
pub struct NgramCounts {
    counts: HashMap<String, f64>,
    documents: usize,
}

impl NgramCounts {
    /// Empty table.
    pub fn new() -> NgramCounts {
        NgramCounts::default()
    }

    /// Add a document's unigrams with weight 1.
    pub fn add_document(&mut self, text: &str) {
        self.add_weighted(text, 1.0);
    }

    /// Add a document's unigrams with a weight (e.g. upvotes).
    pub fn add_weighted(&mut self, text: &str, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.documents += 1;
        for w in content_words(text) {
            *self.counts.entry(w).or_insert(0.0) += weight;
        }
    }

    /// Add a document's bigrams (joined with a space) with a weight.
    pub fn add_bigrams_weighted(&mut self, text: &str, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.documents += 1;
        let words = content_words(text);
        for pair in words.windows(2) {
            *self
                .counts
                .entry(format!("{} {}", pair[0], pair[1]))
                .or_insert(0.0) += weight;
        }
    }

    /// Number of documents added.
    pub fn documents(&self) -> usize {
        self.documents
    }

    /// Total weight of one n-gram.
    pub fn count(&self, gram: &str) -> f64 {
        self.counts.get(gram).copied().unwrap_or(0.0)
    }

    /// Number of distinct n-grams.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `k` heaviest n-grams, heaviest first; ties broken alphabetically
    /// for determinism.
    pub fn top_k(&self, k: usize) -> Vec<(String, f64)> {
        let mut entries: Vec<(String, f64)> =
            self.counts.iter().map(|(g, c)| (g.clone(), *c)).collect();
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        entries.truncate(k);
        entries
    }

    /// Iterate all `(gram, weight)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counts.iter().map(|(g, c)| (g.as_str(), *c))
    }
}

/// Add `(gram, weight)` entries to the n-gram weights, e.g. another
/// shard's table over disjoint documents. The document count is left as it
/// is. With integer-valued weights the sums are exact, so merging shard
/// tables in any order gives the same weights as counting all their
/// documents at once.
impl Extend<(String, f64)> for NgramCounts {
    fn extend<I: IntoIterator<Item = (String, f64)>>(&mut self, entries: I) {
        for (gram, weight) in entries {
            *self.counts.entry(gram).or_insert(0.0) += weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_unigrams_without_stopwords() {
        let mut c = NgramCounts::new();
        c.add_document("the outage is an outage and the outage continues");
        assert_eq!(c.count("outage"), 3.0);
        assert_eq!(c.count("the"), 0.0);
        assert_eq!(c.documents(), 1);
    }

    #[test]
    fn weights_apply() {
        let mut c = NgramCounts::new();
        c.add_weighted("roaming works", 10.0);
        c.add_weighted("roaming broken", 1.0);
        assert_eq!(c.count("roaming"), 11.0);
        assert_eq!(c.count("works"), 10.0);
        c.add_weighted("ignored", 0.0);
        assert_eq!(c.count("ignored"), 0.0);
    }

    #[test]
    fn top_k_ordering_and_ties() {
        let mut c = NgramCounts::new();
        c.add_document("alpha alpha beta beta gamma");
        let top = c.top_k(3);
        assert_eq!(top.len(), 3);
        // alpha and beta tie at 2; alphabetical order breaks the tie.
        assert_eq!(top[0].0, "alpha");
        assert_eq!(top[1].0, "beta");
        assert_eq!(top[2].0, "gamma");
        assert!(c.top_k(0).is_empty());
        assert_eq!(c.top_k(100).len(), c.distinct());
    }

    #[test]
    fn bigrams() {
        let mut c = NgramCounts::new();
        c.add_bigrams_weighted("roaming enabled roaming enabled", 2.0);
        assert_eq!(c.count("roaming enabled"), 4.0);
        assert_eq!(c.count("enabled roaming"), 2.0);
    }

    #[test]
    fn empty_document_is_harmless() {
        let mut c = NgramCounts::new();
        c.add_document("");
        assert_eq!(c.distinct(), 0);
        assert_eq!(c.documents(), 1);
    }
}
