//! Structurally shared, append-only storage.
//!
//! [`Chunks`] is an immutable chain of `Arc`'d chunks: the build-time items
//! plus one chunk per committed append. A generation stores its sessions,
//! its posts and its per-post view memos this way, so a commit pushes one
//! chunk for its batch and shares every earlier chunk by reference instead
//! of copying the history. [`PostRead`] is the in-order read access the §4
//! pipelines take, so they run unchanged over a flat [`Forum`] and over a
//! generation's post chain.

use analytics::time::Date;
use social::post::{Forum, Post};
use std::sync::Arc;

/// An immutable chain of `Arc`'d chunks. Cloning copies only the chunk
/// list (one `Arc` per past append), never the items, so carrying a
/// 100k-item corpus into the next generation costs O(appends) instead of
/// an O(corpus) copy. Iteration order is chunk order, which is exactly the
/// append order.
pub struct Chunks<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Clone for Chunks<T> {
    fn clone(&self) -> Chunks<T> {
        Chunks {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for Chunks<T> {
    fn default() -> Chunks<T> {
        Chunks {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Chunks<T> {
    /// Wrap an initial collection as the first chunk (no copy).
    pub fn from_vec(items: Vec<T>) -> Chunks<T> {
        let len = items.len();
        Chunks {
            chunks: vec![Arc::new(items)],
            len,
        }
    }

    /// A new chain sharing every existing chunk, with `delta` appended as
    /// one new chunk (skipped when empty).
    pub(crate) fn extended(&self, delta: Vec<T>) -> Chunks<T> {
        let mut next = self.clone();
        if !delta.is_empty() {
            next.len += delta.len();
            next.chunks.push(Arc::new(delta));
        }
        next
    }

    /// Total items across all chunks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no item is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate every item in append order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            rest: self.chunks.iter(),
            cur: [].iter(),
        }
    }

    /// The chunks themselves, oldest first.
    pub(crate) fn chunks(&self) -> &[Arc<Vec<T>>] {
        &self.chunks
    }

    /// The items past the first `from`, as one slice. `from` is the length
    /// this chain had before its last [`Chunks::extended`] (the appended
    /// chunk) or its current length (empty); any other split would span
    /// chunks and panics.
    pub(crate) fn tail(&self, from: usize) -> &[T] {
        if from == self.len {
            return &[];
        }
        let last = self.chunks.last().map_or(&[][..], |c| c.as_slice());
        assert_eq!(
            self.len - last.len(),
            from,
            "a chain's tail starts at its last chunk"
        );
        last
    }

    /// Every item copied into one flat `Vec`, in append order.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }
}

impl<'a, T> IntoIterator for &'a Chunks<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// In-order iterator over a [`Chunks`] chain. `next` costs one slice step
/// plus a chunk switch at each boundary, so lock-step walks (`zip`) stay
/// cheap; `fold` (and so `for_each`, `sum`, …) runs one plain slice loop
/// per chunk.
pub struct Iter<'a, T> {
    rest: std::slice::Iter<'a, Arc<Vec<T>>>,
    cur: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.cur.next() {
                return Some(item);
            }
            self.cur = self.rest.next()?.iter();
        }
    }

    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, &'a T) -> B,
    {
        let mut acc = self.cur.fold(init, &mut f);
        for chunk in self.rest {
            acc = chunk.iter().fold(acc, &mut f);
        }
        acc
    }
}

/// In-order read access to a post collection: the flat [`Forum`] the
/// generators build and the [`Chunks`] chain a generation stores. Post `i`
/// of [`PostRead::iter`] is document `i` of the collection's
/// [`sentiment::corpus::TokenCorpus`].
pub trait PostRead {
    /// Number of posts.
    fn len(&self) -> usize;

    /// True when there is no post.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every post, in order.
    fn iter(&self) -> impl Iterator<Item = &Post>;

    /// Earliest and latest post dates, `None` when empty — a min/max scan,
    /// since posts carry no ordering guarantee ([`Forum::date_range`]).
    fn date_range(&self) -> Option<(Date, Date)> {
        let mut dates = self.iter().map(|p| p.date);
        let first = dates.next()?;
        Some(dates.fold((first, first), |(lo, hi), d| (lo.min(d), hi.max(d))))
    }
}

impl PostRead for Forum {
    fn len(&self) -> usize {
        self.posts.len()
    }

    fn iter(&self) -> impl Iterator<Item = &Post> {
        self.posts.iter()
    }
}

impl PostRead for Chunks<Post> {
    fn len(&self) -> usize {
        self.len
    }

    fn iter(&self) -> impl Iterator<Item = &Post> {
        Chunks::iter(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Split `flat` at random points into a chain built by `extended`,
    /// with some empty deltas mixed in.
    fn random_chain(flat: &[u32], rng: &mut StdRng) -> Chunks<u32> {
        let mut chain = Chunks::from_vec(Vec::new());
        let mut at = 0;
        while at < flat.len() {
            let take = rng.gen_range(0..=(flat.len() - at).min(7));
            let before = chain.len();
            chain = chain.extended(flat[at..at + take].to_vec());
            assert_eq!(chain.tail(before), &flat[at..at + take]);
            at += take;
        }
        chain
    }

    #[test]
    fn random_splits_read_like_the_flat_vec() {
        let mut rng = StdRng::seed_from_u64(0xC4A1);
        for n in [0usize, 1, 2, 5, 31, 64, 200] {
            let flat: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let chain = random_chain(&flat, &mut rng);
            assert_eq!(chain.len(), n);
            assert_eq!(chain.is_empty(), n == 0);
            assert_eq!(chain.to_vec(), flat);
            assert_eq!(chain.iter().copied().collect::<Vec<_>>(), flat);
            assert_eq!(chain.iter().count(), n);
            let order_hash = |acc: u64, x: &u32| acc.wrapping_mul(31).wrapping_add(u64::from(*x));
            assert_eq!(
                chain.iter().fold(0, order_hash),
                flat.iter().fold(0, order_hash)
            );
            for skip in [0, 1, 3, n / 2, n.saturating_sub(1), n, n + 4] {
                let mut it = chain.iter();
                let rest: Vec<u32> = it.by_ref().skip(skip).copied().collect();
                assert_eq!(rest, flat.iter().skip(skip).copied().collect::<Vec<_>>());
                assert_eq!(it.next(), None);
                let mut it = chain.iter();
                assert_eq!(it.nth(skip), flat.get(skip));
                assert_eq!(it.count(), n.saturating_sub(skip + 1));
            }
            assert_eq!(chain.tail(n), &[] as &[u32]);
        }
    }

    #[test]
    fn an_empty_delta_adds_no_chunk_and_shares_every_chunk() {
        let chain = Chunks::from_vec(vec![1, 2]).extended(vec![3]);
        let next = chain.extended(Vec::new());
        assert_eq!(next.len(), 3);
        assert_eq!(next.chunks().len(), chain.chunks().len());
        for (a, b) in chain.chunks().iter().zip(next.chunks()) {
            assert!(Arc::ptr_eq(a, b));
        }
        let grown = next.extended(vec![4, 5]);
        assert_eq!(grown.chunks().len(), chain.chunks().len() + 1);
        for (a, b) in chain.chunks().iter().zip(grown.chunks()) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(grown.tail(3), &[4, 5]);
    }

    #[test]
    #[should_panic(expected = "tail starts at its last chunk")]
    fn a_tail_spanning_chunks_panics() {
        let chain = Chunks::from_vec(vec![1, 2]).extended(vec![3]);
        let _ = chain.tail(1);
    }

    #[test]
    fn a_post_chain_reads_like_its_flat_forum() {
        let forum = social::generator::generate(&social::generator::ForumConfig {
            authors: 60,
            end: Date::from_ymd(2021, 1, 31).unwrap(),
            ..social::generator::ForumConfig::default()
        });
        let mut posts = forum.posts.clone();
        posts.reverse();
        let flat = Forum { posts };
        let chain = Chunks::from_vec(flat.posts[..10].to_vec()).extended(flat.posts[10..].to_vec());
        assert_eq!(PostRead::len(&chain), flat.len());
        assert!(chain.iter().eq(PostRead::iter(&flat)));
        assert_eq!(PostRead::date_range(&chain), flat.date_range());
        assert_eq!(PostRead::date_range(&Chunks::<Post>::default()), None);
    }
}
