//! A build-once grid index over rectangles.
//!
//! DRC and extraction repeatedly ask "which shapes are near this one?".
//! [`RectIndex`] answers from a dense grid of bins laid over the
//! bounding box of its rectangles. Bin sides are powers of two, so
//! finding a coordinate's bin is one subtraction and one shift. Nothing
//! is hashed and nothing is allocated per question.
//!
//! There is one probe and one join, and both report each stored
//! rectangle (or pair) once, with no dedup state, by the same rule: a
//! rectangle spanning several bins is reported only in the bin that
//! holds one point determined by the question.
//!
//! * [`RectIndex::for_each_touching`] reports every stored rectangle
//!   that touches a window, in the bin of `(max x0, max y0)` of the
//!   rectangle and the window.
//! * [`RectIndex::for_each_touching_pair`] reports every touching pair
//!   of stored rectangles, in the bin of `(max x0, max y0)` of the pair,
//!   comparing the rectangles within each bin with no query per
//!   rectangle.
//!
//! Neither has a set order; a caller that needs one sorts what it
//! collected.

use crate::Rect;

/// The grid of a [`RectIndex`] holds at most this many bins per stored
/// rectangle.
const MAX_BINS_PER_RECT: u128 = 8;

/// Bin side of an empty index, as a power of two (16λ).
const EMPTY_SHIFT: u32 = 4;

/// A dense grid index mapping bins to rectangles, built once from a
/// rectangle list. A rectangle's id is its position in that list.
///
/// [`RectIndex::bulk_build`] lays a grid of square bins over the
/// bounding box of its rectangles and records, bin by bin, which
/// rectangles cover each bin, in compressed sparse row form: one flat
/// slot array, and one start offset per bin into it. A probe reads the
/// bins its window covers as one slice per grid row.
///
/// The bin side comes from the data: roughly the mean side of the
/// rectangles, clamped to 8–128λ and rounded up to a power of two, which
/// keeps occupancy near one shape per bin from 2λ contacts to wide power
/// rails. The side then doubles until the grid holds at most 8 bins per
/// rectangle, so a sparse layer (a few cuts scattered across a die)
/// never allocates a die-sized grid.
///
/// The index owns the list, so a caller that keeps its rectangles only
/// here reads them back with [`RectIndex::rects`].
///
/// # Examples
///
/// ```
/// use bristle_geom::{Rect, RectIndex};
///
/// let idx = RectIndex::bulk_build([Rect::new(0, 0, 4, 4), Rect::new(100, 100, 104, 104)]);
/// let mut near = Vec::new();
/// idx.for_each_touching(Rect::new(2, 2, 6, 6), |id, r| near.push((id, r)));
/// assert_eq!(near, vec![(0, Rect::new(0, 0, 4, 4))]);
/// ```
#[derive(Debug, Clone)]
pub struct RectIndex {
    grid: Grid,
    /// The stored rectangles; a rectangle's id and slot are its position.
    rects: Vec<Rect>,
    /// `slots[starts[b]..starts[b + 1]]` are the slots covering bin
    /// `b = row · cols + col`, in ascending order.
    starts: Vec<u32>,
    slots: Vec<u32>,
}

/// The bins of a [`RectIndex`]: `cols × rows` squares of side
/// `1 << shift`, the first with its lower-left corner at `(x0, y0)`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    shift: u32,
    x0: i64,
    y0: i64,
    /// Both zero for an empty index.
    cols: usize,
    rows: usize,
}

impl Grid {
    /// The grid over the bounding box of `rects`, with the bin side
    /// described at [`RectIndex`].
    fn fit(rects: &[Rect]) -> Grid {
        let Some(bbox) = rects.iter().copied().reduce(|a, b| a.union(&b)) else {
            return Grid { shift: EMPTY_SHIFT, x0: 0, y0: 0, cols: 0, rows: 0 };
        };
        let sum: i64 = rects.iter().map(|r| (r.width() + r.height()) / 2).sum();
        let mean = (sum / rects.len() as i64).clamp(8, 128) as u64;
        let mut shift = mean.next_power_of_two().trailing_zeros();
        let size = |shift: u32| ((bbox.width() >> shift) + 1, (bbox.height() >> shift) + 1);
        let bins = |(cols, rows): (i64, i64)| cols as u128 * rows as u128;
        while bins(size(shift)) > MAX_BINS_PER_RECT * rects.len() as u128 {
            shift += 1;
        }
        let (cols, rows) = size(shift);
        Grid { shift, x0: bbox.x0, y0: bbox.y0, cols: cols as usize, rows: rows as usize }
    }

    /// The column of `x` and the row of `y`, for a point in the grid's
    /// bounding box.
    fn bin_of(&self, x: i64, y: i64) -> (usize, usize) {
        (((x - self.x0) >> self.shift) as usize, ((y - self.y0) >> self.shift) as usize)
    }

    /// The column and row ranges `(c0, c1, r0, r1)` of the bins `r`
    /// covers, clamped to the grid; `None` if `r` misses the grid.
    fn span(&self, r: Rect) -> Option<(usize, usize, usize, usize)> {
        // An arithmetic shift floors, so coordinates left of or below the
        // grid land in negative bins and clamp to the first.
        let clamp = |lo: i64, hi: i64, origin: i64, n: usize| {
            let a = lo.saturating_sub(origin) >> self.shift;
            let b = hi.saturating_sub(origin) >> self.shift;
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
    /// Builds an index over `rects`, each under its position as id,
    /// choosing the bin size from the data (see [`RectIndex`]), with a
    /// count pass, a prefix sum and a fill pass. A `Vec` passed in is
    /// kept, not copied.
    #[must_use]
    pub fn bulk_build(rects: impl IntoIterator<Item = Rect>) -> RectIndex {
        let rects: Vec<Rect> = rects.into_iter().collect();
        assert!(u32::try_from(rects.len()).is_ok(), "slots are u32");
        let grid = Grid::fit(&rects);
        // Count each bin's slots, then turn the counts into running ends:
        // `starts[b]` becomes the end of bin `b`'s run.
        let mut starts = vec![0u32; grid.cols * grid.rows + 1];
        for &r in &rects {
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
        for (slot, &r) in rects.iter().enumerate().rev() {
            grid.for_each_bin(r, |b| {
                starts[b] -= 1;
                slots[starts[b] as usize] = slot as u32;
            });
        }
        RectIndex { grid, rects, starts, slots }
    }

    /// The bin size in λ, a power of two.
    #[must_use]
    pub fn bin_size(&self) -> i64 {
        1 << self.grid.shift
    }

    /// Number of rectangles stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True if no rectangles are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The probe: calls `f(id, rect)` once for every stored rectangle
    /// that **touches** `window` (overlaps it or shares an edge or
    /// corner), in no set order. Allocates nothing.
    ///
    /// A rectangle and the window that touch both contain the point
    /// `(max x0, max y0)` of the two, so the rectangle is in that point's
    /// bin, which the window covers; only that bin reports it.
    ///
    /// ```
    /// use bristle_geom::{Rect, RectIndex};
    ///
    /// let idx = RectIndex::bulk_build([
    ///     Rect::new(0, 0, 4, 4),
    ///     Rect::new(4, 0, 300, 4), // shares an edge with the window
    ///     Rect::new(50, 50, 54, 54),
    /// ]);
    /// let mut ids = Vec::new();
    /// idx.for_each_touching(Rect::new(0, 0, 4, 4), |id, _| ids.push(id));
    /// ids.sort_unstable();
    /// assert_eq!(ids, vec![0, 1]);
    /// ```
    pub fn for_each_touching(&self, window: Rect, mut f: impl FnMut(usize, Rect)) {
        let g = &self.grid;
        let Some((c0, c1, r0, r1)) = g.span(window) else {
            return;
        };
        for row in r0..=r1 {
            let b = row * g.cols;
            for col in c0..=c1 {
                let run = self.starts[b + col] as usize..self.starts[b + col + 1] as usize;
                for &s in &self.slots[run] {
                    let r = self.rects[s as usize];
                    if r.touches(&window) && g.bin_of(r.x0.max(window.x0), r.y0.max(window.y0)) == (col, row) {
                        f(s as usize, r);
                    }
                }
            }
        }
    }

    /// The pair join: calls `f(a, b)` once for every pair of stored
    /// rectangles that **touch** (overlap or share an edge or corner),
    /// with `a < b`. Allocates nothing.
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
    ///     Rect::new(0, 0, 40, 2),
    ///     Rect::new(40, 0, 42, 9),
    ///     Rect::new(90, 90, 92, 92),
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
                    let ra = self.rects[s as usize];
                    for &t in &run[k + 1..] {
                        let rb = self.rects[t as usize];
                        if ra.touches(&rb) && g.bin_of(ra.x0.max(rb.x0), ra.y0.max(rb.y0)) == (col, row) {
                            f(s as usize, t as usize);
                        }
                    }
                }
            }
        }
    }

    /// The stored rectangles, each at its id.
    #[must_use]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids `for_each_touching` reports, sorted; a duplicate would
    /// survive the sort and fail the comparison.
    fn ids(idx: &RectIndex, window: Rect) -> Vec<usize> {
        let mut ids = Vec::new();
        idx.for_each_touching(window, |i, _| ids.push(i));
        ids.sort_unstable();
        ids
    }

    #[test]
    fn query_finds_touching() {
        let idx = RectIndex::bulk_build([
            Rect::new(0, 0, 4, 4),
            Rect::new(4, 0, 8, 4), // shares an edge with the window below
            Rect::new(50, 50, 54, 54),
        ]);
        assert_eq!(ids(&idx, Rect::new(0, 0, 4, 4)), vec![0, 1]);
    }

    #[test]
    fn no_duplicates_across_bins() {
        // Spans many bins.
        let idx = RectIndex::bulk_build([Rect::new(0, 0, 40, 2), Rect::new(0, 9, 2, 11)]);
        assert!(idx.grid.cols > 1);
        assert_eq!(ids(&idx, Rect::new(0, 0, 40, 2)), vec![0]);
        // A window starting left of and below the grid.
        assert_eq!(ids(&idx, Rect::new(-50, -50, 100, 10)), vec![0, 1]);
    }

    #[test]
    fn negative_coordinates() {
        let idx = RectIndex::bulk_build([Rect::new(-20, -20, -10, -10), Rect::new(-200, -90, -196, -86)]);
        assert_eq!(ids(&idx, Rect::new(-15, -15, -12, -12)), vec![0]);
        assert_eq!(ids(&idx, Rect::new(0, 0, 4, 4)), Vec::<usize>::new());
        assert_eq!(ids(&idx, Rect::new(-300, -300, -198, -88)), vec![1]);
    }

    #[test]
    fn len_and_iter() {
        assert!(RectIndex::bulk_build([]).is_empty());
        let rects = [Rect::new(0, 0, 1, 1), Rect::new(2, 2, 3, 3)];
        let idx = RectIndex::bulk_build(rects);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.rects(), rects);
    }

    #[test]
    fn bin_runs_hold_every_covering_slot_in_order() {
        let rects = [
            Rect::new(0, 0, 4, 4),
            Rect::new(4, 0, 8, 4),
            Rect::new(-30, 2, -26, 40),
            Rect::new(100, 100, 160, 104),
        ];
        let idx = RectIndex::bulk_build(rects);
        let (g, bin) = (idx.grid, idx.bin_size());
        assert!(bin.count_ones() == 1 && (8..=128).contains(&bin), "bin {bin}");
        assert_eq!(idx.starts.len(), g.cols * g.rows + 1);
        assert_eq!(idx.starts[g.cols * g.rows] as usize, idx.slots.len());
        for b in 0..g.cols * g.rows {
            let run = &idx.slots[idx.starts[b] as usize..idx.starts[b + 1] as usize];
            assert!(run.windows(2).all(|w| w[0] < w[1]), "bin {b}: {run:?}");
            let (col, row) = ((b % g.cols) as i64, (b / g.cols) as i64);
            let cell = Rect::new(
                g.x0 + col * bin,
                g.y0 + row * bin,
                g.x0 + (col + 1) * bin - 1,
                g.y0 + (row + 1) * bin - 1,
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
        let idx = RectIndex::bulk_build(rects.clone());
        assert!(idx.bin_size() > 128, "bin {}", idx.bin_size());
        assert!((idx.grid.cols * idx.grid.rows) as u128 <= MAX_BINS_PER_RECT * rects.len() as u128);
        assert_eq!(ids(&idx, Rect::new(1000, 3, 1001, 3)), vec![0]);
    }

    #[test]
    fn touching_pair_spanning_many_bins_is_reported_once() {
        // A rail crossing several bins, a strap overlapping it across
        // two of them, an edge neighbour, a corner neighbour and a loner.
        let idx = RectIndex::bulk_build([
            Rect::new(0, 0, 200, 4),
            Rect::new(30, -20, 60, 20),
            Rect::new(200, 4, 210, 30),
            Rect::new(-9, -9, 0, 0),
            Rect::new(500, 500, 502, 502),
        ]);
        assert!(idx.grid.cols > 2);
        let mut pairs = Vec::new();
        idx.for_each_touching_pair(|a, b| pairs.push((a, b)));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3)]);
    }
}
