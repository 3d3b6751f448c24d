//! Property tests: `RectIndex` queries (both the allocating iterator and
//! the stamped-dedup scratch path) agree with a brute-force O(n²) oracle
//! on random rectangle soups, at both clamps of the data-driven bin size,
//! on sparse soups whose grid the bin-count bound sizes, and for windows
//! inside, across and wholly outside the indexed bounding box. The pair
//! join reports exactly the brute-force set of touching pairs, each once.
//!
//! Randomized with a deterministic xorshift generator (no external
//! dependencies are available in this workspace).

use bristle_geom::{QueryScratch, Rect, RectIndex};

/// Deterministic xorshift64* PRNG for dependency-free property tests.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// A random soup mixing small contacts, mid-size shapes and long skinny
/// wires (the shapes DRC/extraction actually see).
fn arb_soup(rng: &mut Rng, n: usize) -> Vec<Rect> {
    (0..n)
        .map(|_| {
            let x = rng.range(-200, 200);
            let y = rng.range(-200, 200);
            let (w, h) = match rng.range(0, 3) {
                0 => (rng.range(1, 4), rng.range(1, 4)),
                1 => (rng.range(2, 30), rng.range(2, 30)),
                _ => (rng.range(40, 160), rng.range(1, 5)),
            };
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

fn oracle(soup: &[Rect], window: Rect) -> Vec<(usize, Rect)> {
    soup.iter()
        .copied()
        .enumerate()
        .filter(|(_, r)| r.touches(&window))
        .collect()
}

/// Dense soups of small shapes: the mean side is under 8λ, so the bin
/// size sits at its 8λ floor.
fn small_soup(rng: &mut Rng, n: usize) -> Vec<Rect> {
    (0..n)
        .map(|_| {
            let (x, y) = (rng.range(-50, 50), rng.range(-50, 50));
            Rect::new(x, y, x + rng.range(1, 6), y + rng.range(1, 6))
        })
        .collect()
}

/// Soups of wide shapes only: the mean side is over 128λ, so the bin
/// size sits at its 128λ ceiling.
fn wide_soup(rng: &mut Rng, n: usize) -> Vec<Rect> {
    (0..n)
        .map(|_| {
            let (x, y) = (rng.range(-400, 400), rng.range(-400, 400));
            Rect::new(x, y, x + rng.range(150, 400), y + rng.range(150, 400))
        })
        .collect()
}

/// One ~2,000λ rail plus 2λ cuts scattered across a die: at the
/// data-driven bin size the grid would be far too large for the few
/// shapes, so the grid bound grows the bins.
fn sparse_soup(rng: &mut Rng, n: usize) -> Vec<Rect> {
    let y = rng.range(-100, 100);
    let mut soup = vec![Rect::new(-1000, y, 1000 + rng.range(0, 40), y + 4)];
    soup.extend((1..n).map(|_| {
        let (x, y) = (rng.range(-1000, 1000), rng.range(-1500, 1500));
        Rect::new(x, y, x + 2, y + 2)
    }));
    soup
}

/// The bounding box of a non-empty soup.
fn bbox(soup: &[Rect]) -> Rect {
    soup.iter().copied().reduce(|a, b| a.union(&b)).unwrap()
}

/// Random windows around `b`: inside it, straddling its edges, wholly
/// outside it, and degenerate points and lines.
fn windows(rng: &mut Rng, b: Rect, n: usize) -> Vec<Rect> {
    let (w, h) = (b.width().max(1), b.height().max(1));
    (0..n)
        .map(|k| {
            let x = b.x0 + rng.range(-w / 4 - 10, w + w / 4 + 10);
            let y = b.y0 + rng.range(-h / 4 - 10, h + h / 4 + 10);
            match k % 6 {
                // Wholly outside: left, right, below, above.
                0 => Rect::new(b.x0 - 50, y, b.x0 - 1, y + 20),
                1 => Rect::new(b.x1 + 1, y, b.x1 + 60, y + 20),
                2 => Rect::new(x, b.y0 - 30, x + 20, b.y0 - 1),
                3 => Rect::new(x, b.y1 + 1, x + 20, b.y1 + 1),
                // Straddling a corner or an edge of the box.
                4 => Rect::new(b.x0 - 7, b.y0 - 7, x.max(b.x0), y.max(b.y0)),
                _ => Rect::new(x, y, x + rng.range(0, 200), y + rng.range(0, 200)),
            }
        })
        .collect()
}

#[test]
fn query_matches_oracle() {
    let mut rng = Rng::new(0x1D40_0001);
    for case in 0..40 {
        let (soup, bin) = match case % 4 {
            0 => (small_soup(&mut rng, 60), Some(8)),
            1 => (wide_soup(&mut rng, 60), Some(128)),
            2 => (sparse_soup(&mut rng, 30), None),
            _ => (arb_soup(&mut rng, 60), None),
        };
        let idx = RectIndex::bulk_build(soup.iter().copied().enumerate());
        if let Some(bin) = bin {
            assert_eq!(idx.bin_size(), bin, "case {case}");
        }
        if case % 4 == 2 {
            // The grid bound, not the mean side, sets the bins here.
            assert!(idx.bin_size() > 128, "case {case}: bin {}", idx.bin_size());
        }
        for window in windows(&mut rng, bbox(&soup), 30) {
            let got: Vec<_> = idx.query(window).collect();
            assert_eq!(got, oracle(&soup, window), "case {case} window {window}");
        }
    }
}

#[test]
fn empty_index_finds_nothing() {
    let idx = RectIndex::bulk_build([]);
    assert!(idx.is_empty());
    let mut scratch = QueryScratch::new();
    for window in [Rect::new(0, 0, 0, 0), Rect::new(-100, -100, 100, 100)] {
        assert_eq!(idx.query(window).count(), 0);
        let mut hits = 0;
        idx.query_with(window, &mut scratch, |_, _| hits += 1);
        assert_eq!(hits, 0);
        assert_eq!(idx.first_match(window, &mut scratch, |_, _| true), None);
    }
}

#[test]
fn one_scratch_serves_indexes_of_every_grid_shape() {
    let mut rng = Rng::new(0x1D40_0005);
    let soups: Vec<Vec<Rect>> = vec![
        Vec::new(),
        small_soup(&mut rng, 5),
        wide_soup(&mut rng, 40),
        sparse_soup(&mut rng, 50),
        arb_soup(&mut rng, 200),
        vec![Rect::new(3, 3, 3, 3)],
    ];
    let indexes: Vec<RectIndex> = soups
        .iter()
        .map(|s| RectIndex::bulk_build(s.iter().copied().enumerate()))
        .collect();
    let mut scratch = QueryScratch::new();
    for round in 0..20 {
        for (k, (soup, idx)) in soups.iter().zip(&indexes).enumerate() {
            let around = if soup.is_empty() {
                Rect::new(-10, -10, 10, 10)
            } else {
                bbox(soup)
            };
            for window in windows(&mut rng, around, 5) {
                let mut got: Vec<(usize, Rect)> = Vec::new();
                idx.query_with(window, &mut scratch, |i, r| got.push((i, r)));
                assert_eq!(
                    got,
                    oracle(soup, window),
                    "round {round} soup {k} window {window}"
                );
            }
        }
    }
}

#[test]
fn stamped_dedup_path_matches_oracle() {
    let mut rng = Rng::new(0x1D40_0002);
    // One scratch reused across every index and query — the stamped
    // epoch must never leak hits between queries.
    let mut scratch = QueryScratch::new();
    for case in 0..40 {
        let soup = arb_soup(&mut rng, 80);
        let idx = RectIndex::bulk_build(soup.iter().copied().enumerate());
        for _ in 0..20 {
            let x = rng.range(-250, 250);
            let y = rng.range(-250, 250);
            let window = Rect::new(x, y, x + rng.range(1, 120), y + rng.range(1, 120));
            let mut got: Vec<(usize, Rect)> = Vec::new();
            idx.query_with(window, &mut scratch, |i, r| got.push((i, r)));
            assert_eq!(got, oracle(&soup, window), "case {case} window {window}");
        }
    }
}

#[test]
fn degenerate_point_windows_match_oracle() {
    let mut rng = Rng::new(0x1D40_0003);
    let mut scratch = QueryScratch::new();
    for case in 0..40 {
        let soup = arb_soup(&mut rng, 50);
        let idx = RectIndex::bulk_build(soup.iter().copied().enumerate());
        for _ in 0..30 {
            let p = (rng.range(-220, 220), rng.range(-220, 220));
            let window = Rect::new(p.0, p.1, p.0, p.1);
            let mut got: Vec<(usize, Rect)> = Vec::new();
            idx.query_with(window, &mut scratch, |i, r| got.push((i, r)));
            assert_eq!(got, oracle(&soup, window), "case {case} point {p:?}");
        }
    }
}

#[test]
fn first_match_agrees_with_oracle_minimum() {
    let mut rng = Rng::new(0x1D40_0004);
    let mut scratch = QueryScratch::new();
    for case in 0..40 {
        let soup = arb_soup(&mut rng, 60);
        let idx = RectIndex::bulk_build(soup.iter().copied().enumerate());
        for _ in 0..20 {
            let x = rng.range(-250, 250);
            let y = rng.range(-250, 250);
            let window = Rect::new(x, y, x + rng.range(1, 60), y + rng.range(1, 60));
            let got = idx.first_match(window, &mut scratch, |_, r| r.area() > 50);
            let want = oracle(&soup, window)
                .into_iter()
                .find(|&(_, r)| r.area() > 50);
            assert_eq!(got, want, "case {case} window {window}");
        }
    }
}

/// Zero-width and zero-height rects (lines and points) at negative
/// coordinates, with some sharing only an edge or a corner.
fn degenerate_soup(rng: &mut Rng, n: usize) -> Vec<Rect> {
    (0..n)
        .map(|k| {
            let (x, y) = (rng.range(-90, -10), rng.range(-90, -10));
            match k % 3 {
                0 => Rect::new(x, y, x, y + rng.range(0, 12)),
                1 => Rect::new(x, y, x + rng.range(0, 12), y),
                _ => Rect::new(x, y, x + rng.range(1, 6), y + rng.range(1, 6)),
            }
        })
        .collect()
}

/// Every touching pair `(i, j)`, `i < j`, by brute force.
fn touching_pairs(soup: &[Rect]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, a) in soup.iter().enumerate() {
        for (j, b) in soup.iter().enumerate().skip(i + 1) {
            if a.touches(b) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

#[test]
fn touching_pairs_match_oracle_each_once() {
    let mut rng = Rng::new(0x1D40_0006);
    for case in 0..50 {
        let soup = match case % 5 {
            0 => small_soup(&mut rng, 80),
            1 => wide_soup(&mut rng, 40),
            2 => sparse_soup(&mut rng, 40),
            3 => arb_soup(&mut rng, 80),
            _ => degenerate_soup(&mut rng, 60),
        };
        // Ids offset from slots, as extraction's global piece ids are.
        let idx = RectIndex::bulk_build(soup.iter().copied().enumerate().map(|(i, r)| (i + 7, r)));
        let mut got: Vec<(usize, usize)> = Vec::new();
        idx.for_each_touching_pair(|a, b| got.push((a - 7, b - 7)));
        // Earlier-inserted first in every pair; sorting must not merge
        // duplicates, so a pair reported twice fails the comparison.
        assert!(got.iter().all(|&(a, b)| a < b), "case {case}");
        got.sort_unstable();
        assert_eq!(got, touching_pairs(&soup), "case {case}");
    }
}

#[test]
fn empty_index_has_no_touching_pairs() {
    let mut pairs = 0;
    RectIndex::bulk_build([]).for_each_touching_pair(|_, _| pairs += 1);
    assert_eq!(pairs, 0);
}
