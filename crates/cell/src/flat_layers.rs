//! The per-layer indexed view of a flat cell, shared by the checkers.

use std::sync::{Arc, OnceLock};

use bristle_geom::{gate_regions, Layer, Rect, RectIndex};

use crate::shape::Shape;

/// The rectangles of one mask layer of a [`FlatLayers`] view.
#[derive(Debug)]
struct LayerRects {
    /// The non-degenerate rectangles, in flat order, each under its
    /// position as id. The view keeps them nowhere else.
    index: RectIndex,
    /// `owners[k]` is the position in the flat shapes of the shape rect
    /// `k` was cut from.
    owners: Vec<u32>,
}

/// A flat cell as extraction and DRC read it: every layer's rectangles,
/// indexed once, and the cell's transistor gates, computed at most once.
///
/// [`crate::Library::flat_layers_shared`] builds it from
/// `flatten_shared` and memoizes it with the same policy, so that
/// extracting a cell and then checking it build one view between them.
#[derive(Debug)]
pub struct FlatLayers {
    shapes: Arc<Vec<Shape>>,
    /// One entry per layer, at `layer as usize`: `Layer`'s declaration
    /// order, which is the order of `Layer::ALL`.
    layers: [LayerRects; Layer::ALL.len()],
    gates: OnceLock<Vec<(Rect, usize)>>,
}

impl FlatLayers {
    /// Splits `shapes` into per-layer rectangle lists (each shape's
    /// rectangles in flat order, degenerate ones dropped) and indexes
    /// each list.
    pub(crate) fn build(shapes: Arc<Vec<Shape>>) -> FlatLayers {
        let mut per_layer: [(Vec<Rect>, Vec<u32>); Layer::ALL.len()] = Default::default();
        for (k, shape) in shapes.iter().enumerate() {
            let (rects, owners) = &mut per_layer[shape.layer as usize];
            shape.for_each_rect(|r| {
                if !r.is_degenerate() {
                    rects.push(r);
                    owners.push(k as u32);
                }
            });
        }
        let layers = per_layer.map(|(rects, owners)| LayerRects { index: RectIndex::bulk_build(rects), owners });
        FlatLayers { shapes, layers, gates: OnceLock::new() }
    }

    /// The flat shapes the view was built from, as `flatten_shared`
    /// returns them.
    #[must_use]
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// The non-degenerate rectangles on `layer`, in flat order: each
    /// shape's rectangles, shape by shape.
    #[must_use]
    pub fn rects(&self, layer: Layer) -> &[Rect] {
        self.layers[layer as usize].index.rects()
    }

    /// The flat shape that rectangle `k` of `layer` was cut from.
    ///
    /// # Panics
    ///
    /// Panics if `layer` has no rectangle `k`.
    #[must_use]
    pub fn owner(&self, layer: Layer, k: usize) -> &Shape {
        &self.shapes[self.layers[layer as usize].owners[k] as usize]
    }

    /// The index of [`FlatLayers::rects`]`(layer)`, under ids equal to
    /// positions in that slice.
    #[must_use]
    pub fn rect_index(&self, layer: Layer) -> &RectIndex {
        &self.layers[layer as usize].index
    }

    /// The transistor gates: [`gate_regions`] of the poly rectangles
    /// over the diffusion and buried-contact indexes, so each gate comes
    /// with the position of its first poly rectangle in
    /// `rects(Layer::Poly)`. Computed on first use, then kept.
    #[must_use]
    pub fn gates(&self) -> &[(Rect, usize)] {
        self.gates.get_or_init(|| {
            gate_regions(
                self.rects(Layer::Poly).iter().copied(),
                self.rect_index(Layer::Diffusion),
                self.rect_index(Layer::Buried),
            )
        })
    }
}
