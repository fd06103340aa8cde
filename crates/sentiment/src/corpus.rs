//! Tokenize-once interned text substrate for the §4 social pipeline.
//!
//! Every §4 consumer — sentiment scoring, word-cloud n-grams, the Fig. 6
//! outage keyword dictionary, emerging-topic mining — used to re-tokenize
//! each forum post from scratch and hash raw strings against `HashMap`
//! lexicons on every call. A [`TokenCorpus`] tokenizes each document
//! **exactly once** into compact `u32` token ids against a shared
//! [`Vocab`], and the vocab carries ID-space side tables (valence,
//! intensifier multiplier, negator/stop-word flags) compiled from the
//! global [`Lexicon`]/[`STOPWORDS`] the moment a word is first interned.
//! Scoring, n-gram counting, and keyword matching then become integer
//! loops over `&[u32]` slices with zero per-token allocation:
//!
//! * [`crate::analyzer::SentimentAnalyzer::score_ids`] — valence lookup is
//!   a vector index instead of a string hash;
//! * [`CompiledDict`] — the keyword dictionary as sorted id (pairs),
//!   matched by binary search over integers;
//! * [`IdNgramCounts`] — unigram/bigram counting keyed by ids, resolving
//!   strings only for the final top-k.
//!
//! Construction is parallel: documents are split into contiguous chunks,
//! each chunk tokenized and interned against a chunk-local vocabulary on
//! its own scoped thread, then merged in chunk order. Because chunks are
//! contiguous ranges in document order, the merged vocab assigns ids in
//! global first-appearance order — the corpus (ids, offsets, and vocab)
//! is **bit-identical for every worker count**, and every interned
//! consumer reproduces its string-based reference exactly (pinned by
//! `tests/social_parity.rs`).

use crate::keywords::KeywordDictionary;
use crate::lexicon::Lexicon;
use crate::tokenize::{for_each_token, is_stopword};
use analytics::par::par_map_ranges;
use std::collections::HashMap;
use std::ops::Range;

/// Bit set when the word is a negator.
const FLAG_NEGATOR: u8 = 1 << 0;
/// Bit set when the word is a stop-word.
const FLAG_STOPWORD: u8 = 1 << 1;
/// Bit set when the word is a content word (len > 1 and not a stop-word) —
/// the [`crate::tokenize::content_words`] filter as one bit test.
const FLAG_CONTENT: u8 = 1 << 2;

/// String interner with ID-space lexicon tables.
///
/// `word ↔ id` mapping plus one dense column per lexicon attribute, filled
/// at intern time so lookups during scoring are plain vector indexing.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    ids: HashMap<String, u32>,
    words: Vec<String>,
    /// Valence per id; `0.0` means "not a sentiment word" — the same
    /// contract as [`Lexicon::valence`], which filters zero-valence entries.
    valence: Vec<f64>,
    /// Intensifier multiplier per id; `NaN` means "not an intensifier"
    /// (no real intensifier is NaN).
    intensity: Vec<f64>,
    flags: Vec<u8>,
}

impl Vocab {
    /// Empty vocabulary.
    pub fn new() -> Vocab {
        Vocab::default()
    }

    /// Intern `word` (already tokenized, i.e. lowercased), returning its
    /// id. Allocates and compiles the lexicon attributes only on first
    /// sight; repeat interns are a single hash lookup.
    pub fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.ids.get(word) {
            return id;
        }
        self.push_new(word.to_string())
    }

    /// [`Vocab::intern`] taking ownership, so chunk-merge can move interned
    /// strings instead of re-allocating them.
    pub fn intern_owned(&mut self, word: String) -> u32 {
        if let Some(&id) = self.ids.get(word.as_str()) {
            return id;
        }
        self.push_new(word)
    }

    fn push_new(&mut self, word: String) -> u32 {
        let id = u32::try_from(self.words.len()).expect("vocab exceeds u32 id space");
        let lex = Lexicon::global();
        self.valence.push(lex.valence(&word).unwrap_or(0.0));
        self.intensity
            .push(lex.intensity(&word).unwrap_or(f64::NAN));
        let mut flags = 0u8;
        if lex.is_negator(&word) {
            flags |= FLAG_NEGATOR;
        }
        let stop = is_stopword(&word);
        if stop {
            flags |= FLAG_STOPWORD;
        }
        if word.len() > 1 && !stop {
            flags |= FLAG_CONTENT;
        }
        self.flags.push(flags);
        self.ids.insert(word.clone(), id);
        self.words.push(word);
        id
    }

    /// Id of a word, if interned.
    pub fn id(&self, word: &str) -> Option<u32> {
        self.ids.get(word).copied()
    }

    /// The word behind an id.
    pub fn word(&self, id: u32) -> &str {
        &self.words[id as usize]
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no word has been interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Valence of an id; `0.0` when the word is not a sentiment word
    /// (mirrors [`Lexicon::valence`] returning `None`).
    #[inline]
    pub fn valence(&self, id: u32) -> f64 {
        self.valence[id as usize]
    }

    /// Intensifier multiplier of an id; `NaN` when the word is not an
    /// intensifier (mirrors [`Lexicon::intensity`] returning `None`).
    #[inline]
    pub fn intensity(&self, id: u32) -> f64 {
        self.intensity[id as usize]
    }

    /// Whether the id is a negator.
    #[inline]
    pub fn is_negator(&self, id: u32) -> bool {
        self.flags[id as usize] & FLAG_NEGATOR != 0
    }

    /// Whether the id is a stop-word.
    #[inline]
    pub fn is_stopword(&self, id: u32) -> bool {
        self.flags[id as usize] & FLAG_STOPWORD != 0
    }

    /// Whether the id is a content word (len > 1, not a stop-word) — the
    /// n-gram/word-cloud filter.
    #[inline]
    pub fn is_content(&self, id: u32) -> bool {
        self.flags[id as usize] & FLAG_CONTENT != 0
    }
}

/// One chunk's build output: a chunk-local vocabulary (in local
/// first-appearance order) plus the token stream against it.
struct Chunk {
    words: Vec<String>,
    tokens: Vec<u32>,
    /// Per-document offsets into `tokens`, starting at 0; `docs + 1` long.
    offsets: Vec<u32>,
}

impl Chunk {
    /// Tokenize and locally intern the documents of `range`.
    fn build(
        range: Range<usize>,
        parts_of: &(impl Fn(usize, &mut dyn FnMut(&str)) + Sync),
    ) -> Chunk {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut words: Vec<String> = Vec::new();
        let mut tokens: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = Vec::with_capacity(range.len() + 1);
        offsets.push(0);
        for doc in range {
            parts_of(doc, &mut |part| {
                for_each_token(part, |tok| {
                    let id = match ids.get(tok) {
                        Some(&id) => id,
                        None => {
                            let id = u32::try_from(words.len()).expect("vocab exceeds u32 ids");
                            ids.insert(tok.to_string(), id);
                            words.push(tok.to_string());
                            id
                        }
                    };
                    tokens.push(id);
                });
            });
            let end = u32::try_from(tokens.len()).expect("corpus exceeds u32 token offsets");
            offsets.push(end);
        }
        Chunk {
            words,
            tokens,
            offsets,
        }
    }
}

/// A tokenized-once corpus: every document's token ids, stored flat in CSR
/// layout (`offsets[i]..offsets[i + 1]` indexes document `i`'s slice of
/// `tokens`), against one shared [`Vocab`].
#[derive(Debug, Clone, Default)]
pub struct TokenCorpus {
    vocab: Vocab,
    tokens: Vec<u32>,
    offsets: Vec<u32>,
}

impl TokenCorpus {
    /// Build a corpus over `docs` documents on up to `workers` scoped
    /// threads. `parts_of(i, emit)` must call `emit` once per text part of
    /// document `i` (title, body, …); parts are tokenized back to back with
    /// an implicit word boundary between them, which matches joining the
    /// parts with any non-alphanumeric separator (e.g. `"\n"`) — so the
    /// token stream equals `tokenize(post.text())` without materialising
    /// the concatenated `String`.
    pub fn build_with<F>(docs: usize, workers: usize, parts_of: F) -> TokenCorpus
    where
        F: Fn(usize, &mut dyn FnMut(&str)) + Sync,
    {
        let chunks = par_map_ranges(docs, workers, MIN_CHUNK_DOCS, |range| {
            Chunk::build(range, &parts_of)
        });
        TokenCorpus::from_chunks(chunks)
    }

    /// Merge per-chunk builds in chunk order into one corpus — the
    /// single-assignment vocab-merge discipline that makes every chunk
    /// count produce the same bytes.
    fn from_chunks(chunks: Vec<Chunk>) -> TokenCorpus {
        let mut iter = chunks.into_iter();
        // The first chunk's local ids are the global ids: interning its
        // words in order into the empty global vocab reproduces 0..k.
        let first = iter.next().expect("chunk_ranges yields at least one range");
        let mut vocab = Vocab::new();
        for word in first.words {
            vocab.intern_owned(word);
        }
        let mut tokens = first.tokens;
        let mut offsets = first.offsets;
        for chunk in iter {
            // Remap the chunk's local ids through the global vocab. New
            // words keep their local first-appearance order, so the merged
            // vocab equals the sequential single-chunk build's.
            let remap: Vec<u32> = chunk
                .words
                .into_iter()
                .map(|w| vocab.intern_owned(w))
                .collect();
            let base = u32::try_from(tokens.len()).expect("corpus exceeds u32 token offsets");
            tokens.extend(chunk.tokens.iter().map(|&t| remap[t as usize]));
            offsets.extend(chunk.offsets[1..].iter().map(|&o| base + o));
        }
        TokenCorpus {
            vocab,
            tokens,
            offsets,
        }
    }

    /// Build a corpus where each document is one plain text.
    pub fn from_texts<S: AsRef<str> + Sync>(texts: &[S], workers: usize) -> TokenCorpus {
        TokenCorpus::build_with(texts.len(), workers, |i, emit| emit(texts[i].as_ref()))
    }

    /// Append `new_docs` documents to the corpus — the incremental-ingest
    /// path. `parts_of` indexes the *new* documents from zero, with the
    /// same contract as [`TokenCorpus::build_with`].
    ///
    /// New words are interned in first-appearance order after the existing
    /// vocabulary, and existing ids never move — so extending a corpus is
    /// **bit-identical** to rebuilding it from scratch over the
    /// concatenated document list (vocab, tokens, and offsets alike), for
    /// every worker count. Consumers holding ids from the old epoch keep
    /// resolving them unchanged.
    pub fn extend_with<F>(&mut self, new_docs: usize, workers: usize, parts_of: F)
    where
        F: Fn(usize, &mut dyn FnMut(&str)) + Sync,
    {
        if new_docs == 0 {
            return;
        }
        if self.offsets.is_empty() {
            // A default-constructed corpus has no leading sentinel yet.
            self.offsets.push(0);
        }
        let chunks = par_map_ranges(new_docs, workers, MIN_CHUNK_DOCS, |range| {
            Chunk::build(range, &parts_of)
        });
        self.absorb_chunks(chunks);
    }

    /// Merge appended per-chunk builds in chunk order onto the existing
    /// vocab/tokens/offsets (the tail of [`TokenCorpus::extend_with`]).
    fn absorb_chunks(&mut self, chunks: Vec<Chunk>) {
        for chunk in chunks {
            // Same merge as `build_with`: remap chunk-local ids through the
            // (now non-empty) global vocab, preserving first-appearance
            // order for genuinely new words.
            let remap: Vec<u32> = chunk
                .words
                .into_iter()
                .map(|w| self.vocab.intern_owned(w))
                .collect();
            let base = u32::try_from(self.tokens.len()).expect("corpus exceeds u32 token offsets");
            self.tokens
                .extend(chunk.tokens.iter().map(|&t| remap[t as usize]));
            self.offsets
                .extend(chunk.offsets[1..].iter().map(|&o| base + o));
        }
    }

    /// Number of documents.
    pub fn docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs() == 0
    }

    /// Token ids of document `i`.
    #[inline]
    pub fn doc(&self, i: usize) -> &[u32] {
        &self.tokens[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total tokens across all documents.
    pub fn total_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Resolve document `i` back to its token strings (tests/debugging).
    pub fn doc_words(&self, i: usize) -> Vec<&str> {
        self.doc(i).iter().map(|&id| self.vocab.word(id)).collect()
    }

    /// Serialise the corpus into the persist layer's binary codec.
    ///
    /// Only the words (in id order), the token stream, and the CSR offsets
    /// are written — the vocab's lexicon side tables (valence, intensity,
    /// flags) are **recompiled** at decode time by re-interning the words
    /// in order against the global [`Lexicon`], which reproduces them
    /// bit-identically (interning is deterministic in word order), so the
    /// snapshot stays smaller and can never disagree with the lexicon the
    /// binary ships.
    pub fn encode_bin(&self, w: &mut serde::bin::Writer) {
        w.put_u64(self.vocab.words.len() as u64);
        for word in &self.vocab.words {
            w.put_str(word);
        }
        w.put_u64(self.tokens.len() as u64);
        for &t in &self.tokens {
            w.put_u32(t);
        }
        w.put_u64(self.offsets.len() as u64);
        for &o in &self.offsets {
            w.put_u32(o);
        }
    }

    /// Decode a corpus written by [`TokenCorpus::encode_bin`], validating
    /// every structural invariant (ids in range, offsets monotone and
    /// covering the token stream) so corrupt input surfaces as an
    /// [`serde::bin::Error`] instead of a later panic.
    pub fn decode_bin(r: &mut serde::bin::Reader<'_>) -> Result<TokenCorpus, serde::bin::Error> {
        use serde::bin::Error;
        let n_words = r.get_len()?;
        let mut vocab = Vocab::new();
        for _ in 0..n_words {
            vocab.intern_owned(r.get_str()?.to_string());
        }
        if vocab.len() != n_words {
            return Err(Error::Corrupt("corpus words are not distinct"));
        }
        let n_tokens = r.get_len()?;
        let mut tokens = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            let t = r.get_u32()?;
            if t as usize >= n_words {
                return Err(Error::Corrupt("token id out of vocab range"));
            }
            tokens.push(t);
        }
        let n_offsets = r.get_len()?;
        let mut offsets = Vec::with_capacity(n_offsets);
        for _ in 0..n_offsets {
            offsets.push(r.get_u32()?);
        }
        if n_offsets == 0 {
            if n_tokens != 0 {
                return Err(Error::Corrupt("tokens without CSR offsets"));
            }
        } else {
            if offsets[0] != 0 || *offsets.last().expect("non-empty") as usize != n_tokens {
                return Err(Error::Corrupt("CSR offsets do not cover the token stream"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(Error::Corrupt("CSR offsets are not monotone"));
            }
        }
        Ok(TokenCorpus {
            vocab,
            tokens,
            offsets,
        })
    }
}

/// A [`KeywordDictionary`] compiled to id space: sorted unigram ids and
/// sorted bigram id pairs, matched by binary search. Entries whose words
/// never occur in the corpus vocabulary are dropped at compile time — no
/// token can ever match them.
#[derive(Debug, Clone)]
pub struct CompiledDict {
    unigrams: Vec<u32>,
    bigrams: Vec<(u32, u32)>,
}

impl CompiledDict {
    /// Compile `dict` against `vocab`.
    pub fn compile(dict: &KeywordDictionary, vocab: &Vocab) -> CompiledDict {
        let mut unigrams: Vec<u32> = dict.unigrams().filter_map(|w| vocab.id(w)).collect();
        unigrams.sort_unstable();
        let mut bigrams: Vec<(u32, u32)> = dict
            .bigrams()
            .filter_map(|(a, b)| Some((vocab.id(a)?, vocab.id(b)?)))
            .collect();
        bigrams.sort_unstable();
        CompiledDict { unigrams, bigrams }
    }

    /// Compiled entries (unigrams + bigrams) that can actually match.
    pub fn len(&self) -> usize {
        self.unigrams.len() + self.bigrams.len()
    }

    /// True when nothing can match.
    pub fn is_empty(&self) -> bool {
        self.unigrams.is_empty() && self.bigrams.is_empty()
    }

    /// Keyword occurrences in one token slice; bigram matches consume their
    /// tokens exactly like [`KeywordDictionary::count_matches`]. `consumed`
    /// is caller-provided scratch so corpus sweeps allocate nothing per
    /// document.
    ///
    /// A bigram-free dictionary never consumes a token, so its tally is the
    /// branchless membership kernel
    /// ([`analytics::kernels::count_members_u32`]) over the whole slice —
    /// no per-token branch, no scratch writes. Dictionaries with bigrams
    /// take the consuming walk.
    pub fn count_ids_with(&self, ids: &[u32], consumed: &mut Vec<bool>) -> usize {
        if self.bigrams.is_empty() {
            return analytics::kernels::count_members_u32(ids, &self.unigrams);
        }
        let mut matches = 0usize;
        consumed.clear();
        consumed.resize(ids.len(), false);
        for i in 0..ids.len().saturating_sub(1) {
            if self.bigrams.binary_search(&(ids[i], ids[i + 1])).is_ok() {
                matches += 1;
                consumed[i] = true;
                consumed[i + 1] = true;
            }
        }
        for (i, &id) in ids.iter().enumerate() {
            if !consumed[i] && self.unigrams.binary_search(&id).is_ok() {
                matches += 1;
            }
        }
        matches
    }

    /// Keyword occurrences in one token slice (allocating convenience).
    pub fn count_ids(&self, ids: &[u32]) -> usize {
        self.count_ids_with(ids, &mut Vec::new())
    }

    /// Per-document keyword occurrences over a whole corpus, fanned out in
    /// contiguous chunks over up to `workers` scoped threads. Counts are
    /// integers, so the result is identical for every worker count.
    pub fn count_corpus(&self, corpus: &TokenCorpus, workers: usize) -> Vec<usize> {
        let parts = par_map_ranges(corpus.docs(), workers, MIN_CHUNK_DOCS, |range| {
            let mut scratch = Vec::new();
            range
                .map(|doc| self.count_ids_with(corpus.doc(doc), &mut scratch))
                .collect::<Vec<usize>>()
        });
        flatten_chunks(parts)
    }
}

/// N-gram frequency table keyed by token ids — the interned mirror of
/// [`crate::ngram::NgramCounts`]. Strings are resolved only in
/// [`IdNgramCounts::top_k`].
#[derive(Debug, Clone, Default)]
pub struct IdNgramCounts {
    uni: HashMap<u32, f64>,
    bi: HashMap<(u32, u32), f64>,
    documents: usize,
}

impl IdNgramCounts {
    /// Empty table.
    pub fn new() -> IdNgramCounts {
        IdNgramCounts::default()
    }

    /// Add one document's content-word unigrams with a weight. Mirrors
    /// [`crate::ngram::NgramCounts::add_weighted`]: non-positive weights
    /// are ignored, document order is accumulation order.
    pub fn add_unigrams(&mut self, corpus: &TokenCorpus, doc: usize, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.documents += 1;
        let vocab = corpus.vocab();
        for &id in corpus.doc(doc) {
            if vocab.is_content(id) {
                *self.uni.entry(id).or_insert(0.0) += weight;
            }
        }
    }

    /// Add one document's consecutive content-word bigrams with a weight
    /// (mirrors [`crate::ngram::NgramCounts::add_bigrams_weighted`]).
    pub fn add_bigrams(&mut self, corpus: &TokenCorpus, doc: usize, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.documents += 1;
        let vocab = corpus.vocab();
        let mut prev: Option<u32> = None;
        for &id in corpus.doc(doc) {
            if !vocab.is_content(id) {
                continue;
            }
            if let Some(p) = prev {
                *self.bi.entry((p, id)).or_insert(0.0) += weight;
            }
            prev = Some(id);
        }
    }

    /// Number of documents added.
    pub fn documents(&self) -> usize {
        self.documents
    }

    /// Number of distinct n-grams.
    pub fn distinct(&self) -> usize {
        self.uni.len() + self.bi.len()
    }

    /// Total weight of one unigram id.
    pub fn unigram_weight(&self, id: u32) -> f64 {
        self.uni.get(&id).copied().unwrap_or(0.0)
    }

    /// Iterate `(id, weight)` unigram pairs (unordered).
    pub fn iter_unigrams(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.uni.iter().map(|(&id, &w)| (id, w))
    }

    /// The `k` heaviest n-grams resolved to strings, heaviest first, ties
    /// broken alphabetically — byte-for-byte the ordering of
    /// [`crate::ngram::NgramCounts::top_k`] (bigrams render as
    /// `"first second"`).
    pub fn top_k(&self, vocab: &Vocab, k: usize) -> Vec<(String, f64)> {
        let mut entries: Vec<(String, f64)> = self
            .uni
            .iter()
            .map(|(&id, &w)| (vocab.word(id).to_string(), w))
            .chain(
                self.bi
                    .iter()
                    .map(|(&(a, b), &w)| (format!("{} {}", vocab.word(a), vocab.word(b)), w)),
            )
            .collect();
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        entries.truncate(k);
        entries
    }
}

/// Fewest documents a chunk must hold before a thread spawn pays for
/// itself. Tokenizing is far more expensive per element than a column
/// push, so the floor sits well below the session frame's 4096-element
/// threshold. Every corpus-wide pass (build, scoring, keyword counts)
/// splits with it.
pub const MIN_CHUNK_DOCS: usize = 512;

/// Concatenate per-chunk result vectors in chunk order.
pub fn flatten_chunks<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::{content_words, tokenize};
    use analytics::par::{chunk_ranges, par_map_on};

    fn corpus_of(texts: &[&str], workers: usize) -> TokenCorpus {
        TokenCorpus::from_texts(texts, workers)
    }

    #[test]
    fn docs_resolve_to_the_string_tokenizer_output() {
        let texts = [
            "Another OUTAGE tonight, totally unusable!",
            "",
            "don't worry — speeds are great über Köln",
            "no internet no internet went down",
        ];
        let corpus = corpus_of(&texts, 2);
        assert_eq!(corpus.docs(), texts.len());
        for (i, text) in texts.iter().enumerate() {
            let expected = tokenize(text);
            assert_eq!(corpus.doc_words(i), expected, "doc {i}");
        }
        assert_eq!(
            corpus.total_tokens(),
            texts.iter().map(|t| tokenize(t).len()).sum()
        );
    }

    #[test]
    fn forced_multi_chunk_merge_is_bit_identical_to_adaptive_build() {
        // Shared suffix vocabulary across chunk boundaries so the remap
        // path (chunk-local id != global id) is actually exercised.
        let texts: Vec<String> = (0..97)
            .map(|i| format!("doc {i} outage slow speeds überlastet {}", i % 7))
            .collect();
        let parts_of = |i: usize, emit: &mut dyn FnMut(&str)| emit(texts[i].as_ref());
        let adaptive = TokenCorpus::from_texts(&texts, 4);
        for chunks in [2, 5, 8] {
            let forced =
                TokenCorpus::from_chunks(par_map_on(chunk_ranges(texts.len(), chunks), |range| {
                    Chunk::build(range, &parts_of)
                }));
            assert_eq!(forced.tokens, adaptive.tokens, "chunks {chunks}");
            assert_eq!(forced.offsets, adaptive.offsets, "chunks {chunks}");
            assert_eq!(forced.vocab.words, adaptive.vocab.words, "chunks {chunks}");
        }
        // Extending via forced multi-chunk absorb matches the adaptive
        // extend and the cold rebuild.
        let split = 41;
        let mut forced_ext = TokenCorpus::from_texts(&texts[..split], 4);
        forced_ext.absorb_chunks(par_map_on(chunk_ranges(texts.len() - split, 3), |range| {
            Chunk::build(range, &|i, emit| emit(texts[split + i].as_ref()))
        }));
        assert_eq!(forced_ext.tokens, adaptive.tokens);
        assert_eq!(forced_ext.offsets, adaptive.offsets);
        assert_eq!(forced_ext.vocab.words, adaptive.vocab.words);
    }

    #[test]
    fn extending_a_corpus_is_bit_identical_to_rebuilding() {
        let texts: Vec<String> = (0..83)
            .map(|i| format!("outage {i} slow speeds down again überlastet {}", i % 5))
            .collect();
        let split = 31;
        for workers in [1, 4] {
            let mut extended = TokenCorpus::from_texts(&texts[..split], workers);
            extended.extend_with(texts.len() - split, workers, |i, emit| {
                emit(texts[split + i].as_ref())
            });
            extended.extend_with(0, workers, |_, _| {});
            let rebuilt = TokenCorpus::from_texts(&texts, workers);
            assert_eq!(extended.docs(), rebuilt.docs(), "workers {workers}");
            assert_eq!(extended.tokens, rebuilt.tokens, "workers {workers}");
            assert_eq!(extended.offsets, rebuilt.offsets, "workers {workers}");
            assert_eq!(
                extended.vocab.words, rebuilt.vocab.words,
                "workers {workers}"
            );
        }
        // Growing a default-constructed corpus also works (the append path
        // seeds the CSR sentinel itself).
        let mut from_empty = TokenCorpus::default();
        from_empty.extend_with(texts.len(), 2, |i, emit| emit(texts[i].as_ref()));
        let rebuilt = TokenCorpus::from_texts(&texts, 2);
        assert_eq!(from_empty.tokens, rebuilt.tokens);
        assert_eq!(from_empty.offsets, rebuilt.offsets);
        assert_eq!(from_empty.vocab.words, rebuilt.vocab.words);
    }

    #[test]
    fn worker_count_does_not_change_the_corpus() {
        let texts: Vec<String> = (0..97)
            .map(|i| format!("outage number {i} is down, speeds bad fast great {}", i % 7))
            .collect();
        let one = TokenCorpus::from_texts(&texts, 1);
        for workers in [2, 3, 8] {
            let par = TokenCorpus::from_texts(&texts, workers);
            assert_eq!(one.docs(), par.docs());
            assert_eq!(one.tokens, par.tokens, "workers {workers}");
            assert_eq!(one.offsets, par.offsets, "workers {workers}");
            assert_eq!(one.vocab.words, par.vocab.words, "workers {workers}");
        }
    }

    #[test]
    fn vocab_tables_mirror_the_lexicon() {
        let corpus = corpus_of(&["not very fast but the outage is packet garbage a"], 1);
        let vocab = corpus.vocab();
        let lex = Lexicon::global();
        for id in 0..vocab.len() as u32 {
            let word = vocab.word(id);
            assert_eq!(
                vocab.valence(id),
                lex.valence(word).unwrap_or(0.0),
                "valence of {word}"
            );
            assert_eq!(vocab.is_negator(id), lex.is_negator(word), "negator {word}");
            match lex.intensity(word) {
                Some(m) => assert_eq!(vocab.intensity(id), m),
                None => assert!(vocab.intensity(id).is_nan(), "intensity of {word}"),
            }
            assert_eq!(
                vocab.is_stopword(id),
                crate::tokenize::is_stopword(word),
                "stopword {word}"
            );
            assert_eq!(
                vocab.is_content(id),
                word.len() > 1 && !crate::tokenize::is_stopword(word),
                "content {word}"
            );
        }
        // "packet" carries valence 0 in the entry table and must read as
        // non-sentiment here exactly like Lexicon::valence's filter.
        let packet = vocab.id("packet").unwrap();
        assert_eq!(vocab.valence(packet), 0.0);
    }

    #[test]
    fn empty_corpus_and_empty_docs() {
        let empty = TokenCorpus::from_texts::<&str>(&[], 4);
        assert!(empty.is_empty());
        assert_eq!(empty.docs(), 0);
        assert_eq!(empty.total_tokens(), 0);
        let blank = corpus_of(&["", "   ", "word"], 4);
        assert_eq!(blank.docs(), 3);
        assert!(blank.doc(0).is_empty());
        assert!(blank.doc(1).is_empty());
        assert_eq!(blank.doc_words(2), vec!["word"]);
    }

    #[test]
    fn compiled_dict_counts_match_string_dict() {
        let dict = KeywordDictionary::outages();
        let texts = [
            "another outage, everything went down",
            "went down and still down",
            "no internet since noon, total blackout",
            "lovely sunny day",
            "",
        ];
        let corpus = corpus_of(&texts, 2);
        let compiled = CompiledDict::compile(&dict, corpus.vocab());
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(
                compiled.count_ids(corpus.doc(i)),
                dict.count_matches(text),
                "doc {i}: {text:?}"
            );
        }
        let counts = compiled.count_corpus(&corpus, 3);
        assert_eq!(counts, vec![2, 2, 2, 0, 0]);
        assert_eq!(counts, compiled.count_corpus(&corpus, 1));
    }

    #[test]
    fn compiled_dict_drops_unmatchable_entries() {
        let mut dict = KeywordDictionary::empty();
        dict.add_unigram("borked");
        dict.add_unigram("neverseen");
        dict.add_bigram("dish", "dead");
        dict.add_bigram("ghost", "word");
        let corpus = corpus_of(&["my dish dead and borked"], 1);
        let compiled = CompiledDict::compile(&dict, corpus.vocab());
        assert_eq!(
            compiled.len(),
            2,
            "only entries present in the vocab compile"
        );
        assert!(!compiled.is_empty());
        assert_eq!(compiled.count_ids(corpus.doc(0)), 2);
        let empty = CompiledDict::compile(&KeywordDictionary::empty(), corpus.vocab());
        assert!(empty.is_empty());
        assert_eq!(empty.count_ids(corpus.doc(0)), 0);
    }

    #[test]
    fn id_ngram_counts_match_string_counts() {
        use crate::ngram::NgramCounts;
        let texts = [
            "the outage is an outage and the outage continues",
            "roaming works roaming enabled roaming enabled",
            "alpha alpha beta beta gamma",
        ];
        let corpus = corpus_of(&texts, 2);
        let mut by_str = NgramCounts::new();
        let mut by_id = IdNgramCounts::new();
        for (i, text) in texts.iter().enumerate() {
            let w = 1.0 + i as f64;
            by_str.add_weighted(text, w);
            by_id.add_unigrams(&corpus, i, w);
        }
        assert_eq!(by_id.documents(), by_str.documents());
        assert_eq!(by_id.distinct(), by_str.distinct());
        assert_eq!(by_id.top_k(corpus.vocab(), 100), by_str.top_k(100));
        // Bigrams too, including the content-word windowing.
        let mut bi_str = NgramCounts::new();
        let mut bi_id = IdNgramCounts::new();
        for (i, text) in texts.iter().enumerate() {
            bi_str.add_bigrams_weighted(text, 2.0);
            bi_id.add_bigrams(&corpus, i, 2.0);
        }
        assert_eq!(bi_id.top_k(corpus.vocab(), 100), bi_str.top_k(100));
        assert_eq!(
            by_id.unigram_weight(corpus.vocab().id("outage").unwrap()),
            by_str.count("outage")
        );
        // Non-positive weights are ignored by both.
        bi_id.add_bigrams(&corpus, 0, 0.0);
        by_id.add_unigrams(&corpus, 0, -1.0);
        assert_eq!(by_id.documents(), 3);
    }

    #[test]
    fn content_filter_matches_content_words() {
        let text = "The outage is really bad and I am not happy about it a b";
        let corpus = corpus_of(&[text], 1);
        let vocab = corpus.vocab();
        let filtered: Vec<&str> = corpus
            .doc(0)
            .iter()
            .filter(|&&id| vocab.is_content(id))
            .map(|&id| vocab.word(id))
            .collect();
        assert_eq!(filtered, content_words(text));
    }

    #[test]
    fn corpus_round_trips_bit_identically() {
        let texts: Vec<String> = (0..61)
            .map(|i| format!("outage {i} slow speeds down again überlastet {}", i % 5))
            .collect();
        let corpus = TokenCorpus::from_texts(&texts, 3);
        let mut w = serde::bin::Writer::new();
        corpus.encode_bin(&mut w);
        let bytes = w.into_bytes();
        let mut r = serde::bin::Reader::new(&bytes);
        let decoded = TokenCorpus::decode_bin(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(decoded.tokens, corpus.tokens);
        assert_eq!(decoded.offsets, corpus.offsets);
        assert_eq!(decoded.vocab.words, corpus.vocab.words);
        // The recompiled side tables equal the originals bit-for-bit
        // (NaN intensity sentinels included).
        assert_eq!(decoded.vocab.valence, corpus.vocab.valence);
        assert_eq!(
            decoded
                .vocab
                .intensity
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            corpus
                .vocab
                .intensity
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(decoded.vocab.flags, corpus.vocab.flags);
        // The empty corpus round-trips too.
        let mut w = serde::bin::Writer::new();
        TokenCorpus::default().encode_bin(&mut w);
        let bytes = w.into_bytes();
        let empty = TokenCorpus::decode_bin(&mut serde::bin::Reader::new(&bytes)).unwrap();
        // (`docs()` needs the CSR sentinel a default corpus lacks, so
        // compare fields directly.)
        assert!(empty.tokens.is_empty() && empty.offsets.is_empty() && empty.vocab.is_empty());
    }

    #[test]
    fn corrupt_corpus_bytes_are_rejected() {
        let corpus = TokenCorpus::from_texts(&["outage down again", "down once more"], 1);
        let mut w = serde::bin::Writer::new();
        corpus.encode_bin(&mut w);
        let good = w.into_bytes();
        // Any truncation errors instead of panicking.
        for cut in [0, 3, good.len() / 2, good.len() - 1] {
            assert!(
                TokenCorpus::decode_bin(&mut serde::bin::Reader::new(&good[..cut])).is_err(),
                "cut {cut}"
            );
        }
        // An out-of-range token id is structural corruption.
        let mut w = serde::bin::Writer::new();
        w.put_u64(1);
        w.put_str("word");
        w.put_u64(1);
        w.put_u32(7); // id 7 in a 1-word vocab
        w.put_u64(2);
        w.put_u32(0);
        w.put_u32(1);
        let bad = w.into_bytes();
        assert!(TokenCorpus::decode_bin(&mut serde::bin::Reader::new(&bad)).is_err());
    }

    #[test]
    fn build_with_parts_matches_joined_text() {
        let parts: Vec<[&str; 2]> = vec![
            ["Outage again?", "Anyone else down tonight"],
            ["", "body only"],
            ["title only", ""],
            ["ends mid", "word starts"],
        ];
        let corpus = TokenCorpus::build_with(parts.len(), 2, |i, emit| {
            emit(parts[i][0]);
            emit(parts[i][1]);
        });
        for (i, [title, body]) in parts.iter().enumerate() {
            let joined = format!("{title}\n{body}");
            assert_eq!(corpus.doc_words(i), tokenize(&joined), "doc {i}");
        }
    }
}
