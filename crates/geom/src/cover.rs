//! Rectangle coverage: is a window fully covered by a set of rectangles?
//! DRC uses it for enclosure rules (contacts, implants) where the
//! enclosing material may be drawn as several abutting shapes;
//! extraction uses it to tell a buried contact from a gate.

use crate::Rect;

/// True if `window` is entirely covered by the union of `rects`.
///
/// Runs by residual subtraction: keep a worklist of uncovered pieces of
/// `window`, carving each against every covering rectangle. Worst case is
/// O(n·k) pieces but enclosure windows are tiny in practice.
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
    if window.is_degenerate() {
        return true;
    }
    let mut residue = vec![window];
    for r in rects {
        if residue.is_empty() {
            return true;
        }
        let mut next = Vec::with_capacity(residue.len());
        for piece in residue {
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
        residue = next;
    }
    residue.is_empty()
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
