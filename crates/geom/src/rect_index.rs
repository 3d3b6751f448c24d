//! A build-once grid index over rectangles.
//!
//! DRC and extraction repeatedly ask "which shapes are near this one?".
//! [`RectIndex`] answers from a dense grid of bins laid over the
//! bounding box of its rectangles: nothing is hashed, and with a reused
//! [`QueryScratch`] nothing is allocated once the scratch has warmed up.
//!
//! Extraction also asks "which stored shapes touch each other?" of a
//! whole layer. [`RectIndex::for_each_touching_pair`] answers that with
//! one pair join: it compares the rectangles within each bin and reports
//! each touching pair once, in the one bin that holds a point both
//! contain, with no query per rectangle.

use crate::Rect;

/// The grid of a [`RectIndex`] holds at most this many bins per stored
/// rectangle.
const MAX_BINS_PER_RECT: u128 = 8;

/// Bin side of an empty index.
const EMPTY_BIN: i64 = 16;

/// Reusable scratch state for [`RectIndex::query_with`].
///
/// Queries visit every bin the window covers; a rectangle spanning
/// several bins appears in each of them, so the query must deduplicate.
/// Instead of a per-query hash set, the scratch keeps one stamp per
/// stored slot and a monotonically increasing epoch: a slot is fresh for
/// this query iff its stamp differs from the current epoch. After warmup
/// (one allocation sized to the index), queries allocate nothing.
///
/// A single scratch may be reused across indexes of different sizes; it
/// grows to the largest index it has served.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// `stamp[slot] == epoch` iff the slot was already seen this query.
    stamp: Vec<u32>,
    /// Current query epoch; bumped by every `begin`.
    epoch: u32,
    /// Slots collected this query, sorted before yielding.
    slots: Vec<u32>,
}

impl QueryScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Prepares for a query against an index holding `n` slots.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        // On epoch wraparound every stamp could spuriously equal the new
        // epoch; clear once every 2³² queries to stay correct.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.slots.clear();
    }

    /// Marks a slot; true if it was not yet seen this query.
    fn mark(&mut self, slot: u32) -> bool {
        let s = &mut self.stamp[slot as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }
}

/// A dense grid index mapping bins to rectangle ids, built once from a
/// rectangle set.
///
/// [`RectIndex::bulk_build`] lays a grid of square bins over the
/// bounding box of its rectangles and records, bin by bin, which
/// rectangles cover each bin, in compressed sparse row form: one flat
/// slot array, and one start offset per bin into it. A query reads the
/// bins its window covers as one slice per grid row.
///
/// The bin side comes from the data: roughly the mean side of the
/// rectangles, clamped to 8–128λ, which keeps occupancy near one shape
/// per bin from 2λ contacts to wide power rails. The side then doubles
/// until the grid holds at most 8 bins per rectangle, so a sparse layer
/// (a few cuts scattered across a die) never allocates a die-sized grid.
///
/// Ids are indices into the caller's rectangle storage; the index itself
/// stores copies of the rectangles for overlap confirmation.
///
/// # Examples
///
/// ```
/// use bristle_geom::{Rect, RectIndex};
///
/// let idx = RectIndex::bulk_build([
///     (0, Rect::new(0, 0, 4, 4)),
///     (1, Rect::new(100, 100, 104, 104)),
/// ]);
/// let near: Vec<_> = idx.query(Rect::new(2, 2, 6, 6)).collect();
/// assert_eq!(near, vec![(0, Rect::new(0, 0, 4, 4))]);
/// ```
#[derive(Debug, Clone)]
pub struct RectIndex {
    grid: Grid,
    /// The stored `(id, rect)` pairs; a rectangle's slot is its position.
    items: Vec<(usize, Rect)>,
    /// `slots[starts[b]..starts[b + 1]]` are the slots covering bin
    /// `b = row · cols + col`, in ascending order.
    starts: Vec<u32>,
    slots: Vec<u32>,
}

/// The bins of a [`RectIndex`]: `cols × rows` squares of side `bin`,
/// the first with its lower-left corner at `(x0, y0)`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    bin: i64,
    x0: i64,
    y0: i64,
    /// Both zero for an empty index.
    cols: usize,
    rows: usize,
}

impl Grid {
    /// The grid over the bounding box of `items`, with the bin side
    /// described at [`RectIndex`].
    fn fit(items: &[(usize, Rect)]) -> Grid {
        let Some(bbox) = items.iter().map(|&(_, r)| r).reduce(|a, b| a.union(&b)) else {
            return Grid { bin: EMPTY_BIN, x0: 0, y0: 0, cols: 0, rows: 0 };
        };
        let sum: i64 = items
            .iter()
            .map(|&(_, r)| (r.width() + r.height()) / 2)
            .sum();
        let mut bin = (sum / items.len() as i64).clamp(8, 128);
        let size = |bin: i64| (bbox.width() / bin + 1, bbox.height() / bin + 1);
        let bins = |(cols, rows): (i64, i64)| cols as u128 * rows as u128;
        while bins(size(bin)) > MAX_BINS_PER_RECT * items.len() as u128 {
            bin *= 2;
        }
        let (cols, rows) = size(bin);
        Grid { bin, x0: bbox.x0, y0: bbox.y0, cols: cols as usize, rows: rows as usize }
    }

    /// The column and row ranges `(c0, c1, r0, r1)` of the bins `r`
    /// covers, clamped to the grid; `None` if `r` misses the grid.
    fn span(&self, r: Rect) -> Option<(usize, usize, usize, usize)> {
        let clamp = |lo: i64, hi: i64, origin: i64, n: usize| {
            let a = lo.saturating_sub(origin).div_euclid(self.bin);
            let b = hi.saturating_sub(origin).div_euclid(self.bin);
            let (a, b) = (a.max(0), b.min(n as i64 - 1));
            (a <= b).then_some((a as usize, b as usize))
        };
        let (c0, c1) = clamp(r.x0, r.x1, self.x0, self.cols)?;
        let (r0, r1) = clamp(r.y0, r.y1, self.y0, self.rows)?;
        Some((c0, c1, r0, r1))
    }

    /// Calls `f(b)` for every bin `b` that `r` covers.
    fn for_each_bin(&self, r: Rect, mut f: impl FnMut(usize)) {
        if let Some((c0, c1, r0, r1)) = self.span(r) {
            for row in r0..=r1 {
                for col in c0..=c1 {
                    f(row * self.cols + col);
                }
            }
        }
    }
}

impl RectIndex {
    /// Builds an index from a rectangle set, choosing the bin size from
    /// the data (see [`RectIndex`]), with a count pass, a prefix sum and
    /// a fill pass.
    #[must_use]
    pub fn bulk_build(rects: impl IntoIterator<Item = (usize, Rect)>) -> RectIndex {
        let items: Vec<(usize, Rect)> = rects.into_iter().collect();
        assert!(u32::try_from(items.len()).is_ok(), "slots are u32");
        let grid = Grid::fit(&items);
        // Count each bin's slots, then turn the counts into running ends:
        // `starts[b]` becomes the end of bin `b`'s run.
        let mut starts = vec![0u32; grid.cols * grid.rows + 1];
        for &(_, r) in &items {
            grid.for_each_bin(r, |b| starts[b] += 1);
        }
        let mut end = 0u32;
        for s in &mut starts {
            end = end.checked_add(*s).expect("bin runs hold at most u32::MAX slots");
            *s = end;
        }
        // Fill back to front: each bin's end moves down to its start, and
        // its run comes out in ascending slot order.
        let mut slots = vec![0u32; end as usize];
        for (slot, &(_, r)) in items.iter().enumerate().rev() {
            grid.for_each_bin(r, |b| {
                starts[b] -= 1;
                slots[starts[b] as usize] = slot as u32;
            });
        }
        RectIndex { grid, items, starts, slots }
    }

    /// The bin size in λ.
    #[must_use]
    pub fn bin_size(&self) -> i64 {
        self.grid.bin
    }

    /// Number of rectangles stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no rectangles are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All rectangles whose bounding boxes **touch** the query window
    /// (overlap or share an edge/corner). Each stored rectangle is yielded
    /// at most once, in insertion order.
    ///
    /// Allocates per query; hot loops should prefer
    /// [`RectIndex::query_with`] and a reused [`QueryScratch`].
    pub fn query(&self, window: Rect) -> impl Iterator<Item = (usize, Rect)> + '_ {
        let mut scratch = QueryScratch::new();
        let mut hits: Vec<(usize, Rect)> = Vec::new();
        self.query_with(window, &mut scratch, |id, r| hits.push((id, r)));
        hits.into_iter()
    }

    /// Stamped-dedup query: calls `f(id, rect)` for every stored rectangle
    /// that touches `window`, in insertion order, deduplicating via
    /// `scratch` without allocating (after scratch warmup).
    pub fn query_with(
        &self,
        window: Rect,
        scratch: &mut QueryScratch,
        mut f: impl FnMut(usize, Rect),
    ) {
        let Some((c0, c1, r0, r1)) = self.grid.span(window) else {
            return;
        };
        scratch.begin(self.items.len());
        for row in r0..=r1 {
            // Bins `c0..=c1` of one row are adjacent in `slots`.
            let b = row * self.grid.cols;
            let run = self.starts[b + c0] as usize..self.starts[b + c1 + 1] as usize;
            for &s in &self.slots[run] {
                if scratch.mark(s) && self.items[s as usize].1.touches(&window) {
                    scratch.slots.push(s);
                }
            }
        }
        scratch.slots.sort_unstable();
        for &s in &scratch.slots {
            let (id, r) = self.items[s as usize];
            f(id, r);
        }
    }

    /// The **earliest-inserted** match: the first rectangle in insertion
    /// order that touches `window` and satisfies `pred`, with its id.
    /// (When ids are inserted in ascending order — as the extraction and
    /// DRC pipelines do — this is also the smallest matching id.) A
    /// scratch-based point/area probe for terminal lookup.
    pub fn first_match(
        &self,
        window: Rect,
        scratch: &mut QueryScratch,
        mut pred: impl FnMut(usize, Rect) -> bool,
    ) -> Option<(usize, Rect)> {
        let mut found: Option<(usize, Rect)> = None;
        self.query_with(window, scratch, |id, r| {
            if found.is_none() && pred(id, r) {
                found = Some((id, r));
            }
        });
        found
    }

    /// The pair join: calls `f(a, b)` once for every pair of stored
    /// rectangles that **touch** (overlap or share an edge or corner),
    /// with `a` inserted before `b`. Allocates nothing.
    ///
    /// Each bin compares its own slots pairwise. Two touching closed
    /// rectangles both contain the point `(max x0, max y0)`, so both are
    /// in that point's bin; only that bin reports the pair, and pairs
    /// found in the other bins they share are skipped. Pairs come out bin
    /// by bin, so a caller that needs an order must not rely on this one.
    ///
    /// ```
    /// use bristle_geom::{Rect, RectIndex};
    ///
    /// let idx = RectIndex::bulk_build([
    ///     (0, Rect::new(0, 0, 40, 2)),
    ///     (1, Rect::new(40, 0, 42, 9)),
    ///     (2, Rect::new(90, 90, 92, 92)),
    /// ]);
    /// let mut pairs = Vec::new();
    /// idx.for_each_touching_pair(|a, b| pairs.push((a, b)));
    /// assert_eq!(pairs, vec![(0, 1)]);
    /// ```
    pub fn for_each_touching_pair(&self, mut f: impl FnMut(usize, usize)) {
        let g = &self.grid;
        for row in 0..g.rows {
            for col in 0..g.cols {
                let bin = row * g.cols + col;
                let run = &self.slots[self.starts[bin] as usize..self.starts[bin + 1] as usize];
                for (k, &s) in run.iter().enumerate() {
                    let (a, ra) = self.items[s as usize];
                    for &t in &run[k + 1..] {
                        let (b, rb) = self.items[t as usize];
                        // Both bin coordinates are non-negative: the point
                        // lies in the grid's bounding box.
                        if ra.touches(&rb)
                            && ((ra.x0.max(rb.x0) - g.x0) / g.bin) as usize == col
                            && ((ra.y0.max(rb.y0) - g.y0) / g.bin) as usize == row
                        {
                            f(a, b);
                        }
                    }
                }
            }
        }
    }

    /// Iterates over all stored `(id, rect)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Rect)> + '_ {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(idx: &RectIndex, window: Rect) -> Vec<usize> {
        idx.query(window).map(|(i, _)| i).collect()
    }

    #[test]
    fn query_finds_touching() {
        let idx = RectIndex::bulk_build([
            (7, Rect::new(0, 0, 4, 4)),
            (8, Rect::new(4, 0, 8, 4)), // shares an edge with the window below
            (9, Rect::new(50, 50, 54, 54)),
        ]);
        assert_eq!(ids(&idx, Rect::new(0, 0, 4, 4)), vec![7, 8]);
    }

    #[test]
    fn no_duplicates_across_bins() {
        // Spans many bins.
        let idx = RectIndex::bulk_build([(1, Rect::new(0, 0, 40, 2)), (2, Rect::new(0, 9, 2, 11))]);
        assert!(idx.grid.cols > 1);
        assert_eq!(ids(&idx, Rect::new(0, 0, 40, 2)), vec![1]);
    }

    #[test]
    fn negative_coordinates() {
        let idx = RectIndex::bulk_build([
            (0, Rect::new(-20, -20, -10, -10)),
            (1, Rect::new(-200, -90, -196, -86)),
        ]);
        assert_eq!(idx.query(Rect::new(-15, -15, -12, -12)).count(), 1);
        assert_eq!(idx.query(Rect::new(0, 0, 4, 4)).count(), 0);
        assert_eq!(ids(&idx, Rect::new(-300, -300, -198, -88)), vec![1]);
    }

    #[test]
    fn len_and_iter() {
        assert!(RectIndex::bulk_build([]).is_empty());
        let idx = RectIndex::bulk_build([(3, Rect::new(0, 0, 1, 1)), (4, Rect::new(2, 2, 3, 3))]);
        assert_eq!(idx.len(), 2);
        let all: Vec<usize> = idx.iter().map(|(i, _)| i).collect();
        assert_eq!(all, vec![3, 4]);
    }

    #[test]
    fn bin_runs_hold_every_covering_slot_in_order() {
        let rects = [
            Rect::new(0, 0, 4, 4),
            Rect::new(4, 0, 8, 4),
            Rect::new(-30, 2, -26, 40),
            Rect::new(100, 100, 160, 104),
        ];
        let idx = RectIndex::bulk_build(rects.iter().copied().enumerate());
        let g = idx.grid;
        assert_eq!(idx.starts.len(), g.cols * g.rows + 1);
        assert_eq!(idx.starts[g.cols * g.rows] as usize, idx.slots.len());
        for b in 0..g.cols * g.rows {
            let run = &idx.slots[idx.starts[b] as usize..idx.starts[b + 1] as usize];
            assert!(run.windows(2).all(|w| w[0] < w[1]), "bin {b}: {run:?}");
            let (col, row) = ((b % g.cols) as i64, (b / g.cols) as i64);
            let cell = Rect::new(
                g.x0 + col * g.bin,
                g.y0 + row * g.bin,
                g.x0 + (col + 1) * g.bin - 1,
                g.y0 + (row + 1) * g.bin - 1,
            );
            let want: Vec<u32> = (0..rects.len() as u32)
                .filter(|&s| rects[s as usize].touches(&cell))
                .collect();
            assert_eq!(run, want, "bin {b}");
        }
    }

    #[test]
    fn sparse_grid_is_bounded() {
        // One long rail and a few cuts scattered across a large die.
        let mut rects = vec![Rect::new(0, 0, 2000, 4)];
        rects.extend((0..20).map(|i| {
            let (x, y) = (97 * i % 2000, 211 * i % 3000);
            Rect::new(x, y, x + 2, y + 2)
        }));
        let idx = RectIndex::bulk_build(rects.iter().copied().enumerate());
        assert!(idx.bin_size() > 128, "bin {}", idx.bin_size());
        assert!((idx.grid.cols * idx.grid.rows) as u128 <= MAX_BINS_PER_RECT * rects.len() as u128);
        assert_eq!(ids(&idx, Rect::new(1000, 3, 1001, 3)), vec![0]);
    }

    #[test]
    fn scratch_reuse_across_queries_and_indexes() {
        let small = RectIndex::bulk_build([(0, Rect::new(0, 0, 2, 2))]);
        let big = RectIndex::bulk_build(
            (0..100).map(|i| (i, Rect::new(3 * i as i64, 0, 3 * i as i64 + 2, 2))),
        );
        let mut scratch = QueryScratch::new();
        for _ in 0..3 {
            let mut hits = 0;
            small.query_with(Rect::new(0, 0, 2, 2), &mut scratch, |_, _| hits += 1);
            assert_eq!(hits, 1);
            let mut hits = 0;
            big.query_with(Rect::new(0, 0, 300, 2), &mut scratch, |_, _| hits += 1);
            assert_eq!(hits, 100);
        }
    }

    #[test]
    fn touching_pair_spanning_many_bins_is_reported_once() {
        // A rail crossing several bins, a strap overlapping it across
        // two of them, an edge neighbour, a corner neighbour and a loner.
        let idx = RectIndex::bulk_build([
            (10, Rect::new(0, 0, 200, 4)),
            (11, Rect::new(30, -20, 60, 20)),
            (12, Rect::new(200, 4, 210, 30)),
            (13, Rect::new(-9, -9, 0, 0)),
            (14, Rect::new(500, 500, 502, 502)),
        ]);
        assert!(idx.grid.cols > 2);
        let mut pairs = Vec::new();
        idx.for_each_touching_pair(|a, b| pairs.push((a, b)));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(10, 11), (10, 12), (10, 13)]);
    }

    #[test]
    fn first_match_returns_lowest_id() {
        let idx =
            RectIndex::bulk_build([(5, Rect::new(0, 0, 10, 10)), (2, Rect::new(0, 0, 10, 10))]);
        let mut scratch = QueryScratch::new();
        // Insertion order, not id order: slot for id 5 precedes id 2, but
        // ids sort by slot, so the first yielded is id 5 (inserted first).
        let hit = idx.first_match(Rect::new(1, 1, 2, 2), &mut scratch, |_, _| true);
        assert_eq!(hit.map(|(i, _)| i), Some(5));
    }
}
