//! Rectangle coverage: is a window fully covered by a set of rectangles?
//! DRC uses it for enclosure rules (contacts, implants) where the
//! enclosing material may be drawn as several abutting shapes.
//! [`gate_regions`] uses it to tell a buried contact from a gate, for
//! both DRC and extraction.

use crate::{Rect, RectIndex};

/// True if `window` is entirely covered by the union of `rects`.
///
/// Returns at once when one rectangle encloses `window`. Otherwise runs
/// by residual subtraction: keep a worklist of uncovered pieces of
/// `window`, carving each against every covering rectangle, in two
/// buffers that swap roles per rectangle. Worst case is O(n·k) pieces
/// but enclosure windows are tiny in practice.
///
/// # Examples
///
/// ```
/// use bristle_geom::{covered_by, Rect};
///
/// let window = Rect::new(0, 0, 4, 4);
/// let halves = [Rect::new(0, 0, 2, 4), Rect::new(2, 0, 4, 4)];
/// assert!(covered_by(window, &halves));
/// assert!(!covered_by(window, &halves[..1]));
/// ```
#[must_use]
pub fn covered_by(window: Rect, rects: &[Rect]) -> bool {
    if window.is_degenerate() || rects.iter().any(|r| r.contains_rect(&window)) {
        return true;
    }
    let mut residue = vec![window];
    let mut next = Vec::new();
    for r in rects {
        if residue.is_empty() {
            return true;
        }
        next.clear();
        for &piece in &residue {
            match piece.intersection(r) {
                None => next.push(piece),
                Some(hit) => {
                    // Up to four residual slabs around `hit` inside `piece`.
                    if piece.y1 > hit.y1 {
                        next.push(Rect::new(piece.x0, hit.y1, piece.x1, piece.y1));
                    }
                    if piece.y0 < hit.y0 {
                        next.push(Rect::new(piece.x0, piece.y0, piece.x1, hit.y0));
                    }
                    if piece.x0 < hit.x0 {
                        next.push(Rect::new(piece.x0, hit.y0, hit.x0, hit.y1));
                    }
                    if piece.x1 > hit.x1 {
                        next.push(Rect::new(hit.x1, hit.y0, piece.x1, hit.y1));
                    }
                }
            }
        }
        std::mem::swap(&mut residue, &mut next);
    }
    residue.is_empty()
}

/// The transistor gates of a mask set: every region where a poly rect
/// crosses a diffusion rect, unless buried contacts cover it. Returns
/// each region once, sorted, with the position in `poly` of the first
/// poly rect that forms it.
///
/// `diff` and `buried` index the diffusion and buried-contact rects;
/// only the buried contacts near a crossing are tested against it.
///
/// # Examples
///
/// ```
/// use bristle_geom::{gate_regions, Rect, RectIndex};
///
/// let poly = [Rect::new(0, 4, 12, 6), Rect::new(0, 10, 12, 12)];
/// let diff = RectIndex::bulk_build([Rect::new(4, 0, 6, 16)]);
/// let buried = RectIndex::bulk_build([Rect::new(3, 9, 7, 13)]);
/// let gates = gate_regions(poly, &diff, &buried);
/// assert_eq!(gates, vec![(Rect::new(4, 4, 6, 6), 0)]);
/// ```
#[must_use]
pub fn gate_regions(
    poly: impl IntoIterator<Item = Rect>,
    diff: &RectIndex,
    buried: &RectIndex,
) -> Vec<(Rect, usize)> {
    let mut near_buried: Vec<Rect> = Vec::new();
    let mut gates = Vec::new();
    for (pi, p) in poly.into_iter().enumerate() {
        diff.for_each_touching(p, |_, d| {
            let Some(g) = p.intersection(&d) else {
                return;
            };
            near_buried.clear();
            buried.for_each_touching(g, |_, b| near_buried.push(b));
            if !covered_by(g, &near_buried) {
                gates.push((g, pi));
            }
        });
    }
    // Crossings come in probe order, and the same region can come from
    // several rect pairs: sort, and keep the first poly rect.
    gates.sort_unstable();
    gates.dedup_by_key(|&mut (g, _)| g);
    gates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cover() {
        assert!(covered_by(Rect::new(0, 0, 2, 2), &[Rect::new(0, 0, 2, 2)]));
    }

    #[test]
    fn bigger_cover() {
        assert!(covered_by(Rect::new(1, 1, 3, 3), &[Rect::new(0, 0, 4, 4)]));
    }

    #[test]
    fn mosaic_cover() {
        let quads = [
            Rect::new(0, 0, 2, 2),
            Rect::new(2, 0, 4, 2),
            Rect::new(0, 2, 2, 4),
            Rect::new(2, 2, 4, 4),
        ];
        assert!(covered_by(Rect::new(0, 0, 4, 4), &quads));
        assert!(!covered_by(Rect::new(0, 0, 4, 5), &quads));
    }

    #[test]
    fn pinhole_detected() {
        // Cover everything except a 1×1 hole at (2,2).
        let pieces = [
            Rect::new(0, 0, 4, 2),
            Rect::new(0, 2, 2, 4),
            Rect::new(3, 2, 4, 4),
            Rect::new(2, 3, 3, 4),
        ];
        assert!(!covered_by(Rect::new(0, 0, 4, 4), &pieces));
        // Plug the hole.
        let mut plugged = pieces.to_vec();
        plugged.push(Rect::new(2, 2, 3, 3));
        assert!(covered_by(Rect::new(0, 0, 4, 4), &plugged));
    }

    #[test]
    fn degenerate_window_is_covered() {
        assert!(covered_by(Rect::new(3, 3, 3, 9), &[]));
    }

    #[test]
    fn overlapping_cover_pieces() {
        let pieces = [Rect::new(0, 0, 3, 4), Rect::new(1, 0, 4, 4)];
        assert!(covered_by(Rect::new(0, 0, 4, 4), &pieces));
    }
}
