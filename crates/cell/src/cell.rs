//! Cells, instances and the cell library.
//!
//! *"The fundamental unit in the Bristle Block system is the cell, which
//! may contain geometrical primitives and references to other cells. These
//! cells to the LSI designer can be equated to the programmer's
//! subroutines."* — Johannsen, DAC 1979.
//!
//! # A cell is final once it enters the library
//!
//! [`Library::add_cell`] is the only way a cell enters a library, and
//! nothing changes a cell after that: the library hands out `&Cell`
//! only. A cell is stretched, edited and completed while the caller
//! owns it; to change a held cell, build a new library
//! ([`Library::with_cell_replaced`]), which checks the new cell like any
//! other. So every value derived from a cell stays valid for the
//! library's life:
//!
//! * `add_cell` records each cell's hierarchy box and total power from
//!   the cell's own items and its children's records (a child always
//!   has a smaller id), so [`Library::bbox`] and
//!   [`Library::total_power_ua`] are lookups.
//! * [`Library::flatten_shared`], [`Library::flat_bristles_shared`] and
//!   [`Library::flat_layers_shared`] (the per-layer indexed view that
//!   extraction and DRC share) memoize their result for the cell that
//!   was asked for, and only for it: the cells the walk passes through
//!   get no entry. [`Library::flat_bristles_where`] keeps only the
//!   bristles a filter accepts and caches nothing. An entry never goes
//!   stale; [`Library::clear_flat_cache`] drops them all to free memory.
//! * The cache sits behind an `RwLock`, so filling it needs only
//!   `&Library` and the library stays `Sync`; cloning a library starts
//!   with a cold cache.
//!
//! # Flat views
//!
//! Flattening is the gateway to every geometry back-end pass (DRC,
//! extraction, CIF output, SVG): each needs the shapes or bristles of a
//! whole hierarchy in one coordinate frame. Every flat view comes from
//! one private depth-first walk, which carries the composed transform
//! (`t.after(&inst.transform)`) and the instance-path prefix down the
//! hierarchy, and emits each leaf shape and bristle exactly once: a
//! cell's own items first, then each instance's subtree in instance
//! order.
//!
//! # Bounded geometry
//!
//! [`Library::add_cell`] rejects any cell whose hierarchy leaves
//! ±[`MAX_COORD`] λ. Every flat view, and every back-end pass over one,
//! can therefore rely on the arithmetic that bound documents.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use bristle_geom::{Point, Rect, Transform, MAX_COORD};

use crate::bristle::{Bristle, Flavor, Side};
use crate::flat_layers::FlatLayers;
use crate::power::PowerInfo;
use crate::reprs::CellReprs;
use crate::shape::{Shape, ShapeGeom};

/// The box every coordinate of a library lies in.
const BOUND: Rect = Rect {
    x0: -MAX_COORD,
    y0: -MAX_COORD,
    x1: MAX_COORD,
    y1: MAX_COORD,
};

/// Opaque identifier of a cell within its [`Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// A placed reference to another cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The referenced cell.
    pub cell: CellId,
    /// Instance name, unique within the parent cell.
    pub name: String,
    /// Placement of the child in parent coordinates.
    pub transform: Transform,
}

impl Instance {
    /// Creates an instance.
    #[must_use]
    pub fn new(cell: CellId, name: impl Into<String>, transform: Transform) -> Instance {
        Instance {
            cell,
            name: name.into(),
            transform,
        }
    }
}

/// Errors from cell and library operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// A cell with this name already exists in the library.
    DuplicateName(String),
    /// The referenced cell id is not in this library.
    UnknownCell(CellId),
    /// No cell with this name exists in the library.
    UnknownName(String),
    /// The named cell's geometry, flattened through its instances,
    /// leaves ±[`MAX_COORD`] λ.
    OutOfBounds(String),
    /// The named cell holds a polygon with a diagonal edge; every
    /// back-end pass works on rectilinear geometry only.
    NotRectilinear(String),
    /// The named cell holds a rectilinear polygon whose vertex loop
    /// touches or crosses itself.
    NotSimple(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::DuplicateName(n) => write!(f, "duplicate cell name `{n}`"),
            CellError::UnknownCell(id) => write!(f, "unknown {id}"),
            CellError::UnknownName(n) => write!(f, "no cell named `{n}`"),
            CellError::OutOfBounds(n) => {
                write!(f, "cell `{n}` has geometry beyond ±{MAX_COORD} λ")
            }
            CellError::NotRectilinear(n) => write!(f, "cell `{n}` has a non-rectilinear polygon"),
            CellError::NotSimple(n) => write!(f, "cell `{n}` has a self-touching polygon"),
        }
    }
}

impl std::error::Error for CellError {}

/// A cell: geometry, sub-cell instances, bristles, stretch lines, power
/// data and representation data.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    name: String,
    shapes: Vec<Shape>,
    instances: Vec<Instance>,
    bristles: Vec<Bristle>,
    /// y-positions at which the cell may be stretched vertically.
    stretch_y: Vec<i64>,
    power: PowerInfo,
    reprs: CellReprs,
}

impl Cell {
    /// Creates an empty cell.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Cell {
        Cell {
            name: name.into(),
            shapes: Vec::new(),
            instances: Vec::new(),
            bristles: Vec::new(),
            stretch_y: Vec::new(),
            power: PowerInfo::default(),
            reprs: CellReprs::default(),
        }
    }

    /// The cell's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's own (non-hierarchical) shapes.
    #[must_use]
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Mutable access to the shapes of a cell the caller owns: the
    /// stretch engine's, or an edit before [`Library::with_cell_replaced`].
    pub fn shapes_mut(&mut self) -> &mut Vec<Shape> {
        &mut self.shapes
    }

    /// Adds a shape.
    pub fn push_shape(&mut self, shape: Shape) {
        self.shapes.push(shape);
    }

    /// Sub-cell instances.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Mutable access to the instances of a cell the caller owns, as
    /// [`Cell::shapes_mut`].
    pub fn instances_mut(&mut self) -> &mut Vec<Instance> {
        &mut self.instances
    }

    /// Adds an instance.
    ///
    /// [`Library::add_cell`] validates that every referenced id already
    /// exists in the library, which keeps the hierarchy acyclic, and that
    /// the placed hierarchy stays within the geometry bound.
    pub fn push_instance(&mut self, instance: Instance) {
        self.instances.push(instance);
    }

    /// The cell's bristles.
    #[must_use]
    pub fn bristles(&self) -> &[Bristle] {
        &self.bristles
    }

    /// Mutable access to bristles (used by the stretch engine).
    pub(crate) fn bristles_mut(&mut self) -> &mut Vec<Bristle> {
        &mut self.bristles
    }

    /// Adds a bristle.
    pub fn push_bristle(&mut self, bristle: Bristle) {
        self.bristles.push(bristle);
    }

    /// Declared vertical stretch lines (y positions).
    #[must_use]
    pub fn stretch_y(&self) -> &[i64] {
        &self.stretch_y
    }

    /// Declares a stretch line at `y`: geometry strictly above it shifts
    /// up, geometry crossing it grows taller.
    pub fn add_stretch_y(&mut self, y: i64) {
        if !self.stretch_y.contains(&y) {
            self.stretch_y.push(y);
            self.stretch_y.sort_unstable();
        }
    }

    pub(crate) fn set_stretch_y(&mut self, ys: Vec<i64>) {
        self.stretch_y = ys;
    }

    /// Power requirements of this cell (excluding sub-cells).
    #[must_use]
    pub fn power(&self) -> &PowerInfo {
        &self.power
    }

    /// Sets the power requirements.
    pub fn set_power(&mut self, power: PowerInfo) {
        self.power = power;
    }

    /// Non-layout representation data.
    #[must_use]
    pub fn reprs(&self) -> &CellReprs {
        &self.reprs
    }

    /// Mutable access to representation data.
    pub fn reprs_mut(&mut self) -> &mut CellReprs {
        &mut self.reprs
    }

    /// Bounding box of the cell's own shapes and bristles, ignoring
    /// instances. `None` when the cell is completely empty.
    #[must_use]
    pub fn local_bbox(&self) -> Option<Rect> {
        if self.shapes.is_empty() && self.bristles.is_empty() {
            return None;
        }
        // A plain fold over corners, no `Option` per item: `add_cell`
        // boxes every cell this way.
        let (lo, hi) = (Point::new(i64::MAX, i64::MAX), Point::new(i64::MIN, i64::MIN));
        let (lo, hi) = self.shapes.iter().fold((lo, hi), |(lo, hi), s| {
            let b = s.bbox();
            (lo.min(b.lo()), hi.max(b.hi()))
        });
        let (lo, hi) = self.bristles.iter().fold((lo, hi), |(lo, hi), b| (lo.min(b.pos), hi.max(b.pos)));
        Some(Rect { x0: lo.x, y0: lo.y, x1: hi.x, y1: hi.y })
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell `{}`: {} shapes, {} instances, {} bristles",
            self.name,
            self.shapes.len(),
            self.instances.len(),
            self.bristles.len()
        )
    }
}

/// An arena of cells forming a DAG via instances.
///
/// The paper stores cell definitions "in disk files … to allow for the use
/// of common cell libraries"; see [`crate::save_library`] and
/// [`crate::load_library`] for the file format.
///
/// Cells enter only through [`Library::add_cell`], which keeps the
/// hierarchy acyclic and every coordinate within ±[`MAX_COORD`] λ, and
/// none changes after it entered: see the module docs.
#[derive(Debug, Default)]
pub struct Library {
    name: String,
    /// Every cell with its hierarchy's totals, in id order.
    cells: Vec<Entry>,
    by_name: HashMap<String, CellId>,
    /// Flat shapes of each cell passed to `flatten_shared`, in that
    /// cell's frame; see the module docs.
    flat_cache: RwLock<HashMap<CellId, Arc<Vec<Shape>>>>,
    /// Flat bristles of each cell passed to `flat_bristles_shared`.
    bristle_cache: RwLock<HashMap<CellId, Arc<Vec<Bristle>>>>,
    /// Indexed layer view of each cell passed to `flat_layers_shared`.
    layers_cache: RwLock<HashMap<CellId, Arc<FlatLayers>>>,
}

/// A cell and the totals `add_cell` recorded for its hierarchy.
#[derive(Debug, Clone)]
struct Entry {
    cell: Cell,
    /// Box of the whole hierarchy; `None` when it is empty.
    bbox: Option<Rect>,
    /// Current of the whole hierarchy in microamps, saturating.
    power_ua: u64,
}

/// The entry for `id` in one of a library's flat-view caches, computed
/// by `build` and stored on a miss.
fn memoized<T>(cache: &RwLock<HashMap<CellId, Arc<T>>>, id: CellId, build: impl FnOnce() -> T) -> Arc<T> {
    if let Some(hit) = cache.read().expect("flat cache poisoned").get(&id) {
        return Arc::clone(hit);
    }
    let arc = Arc::new(build());
    // Racing computations of the same cell produce identical values;
    // keep whichever entry landed first.
    Arc::clone(cache.write().expect("flat cache poisoned").entry(id).or_insert(arc))
}

impl Clone for Library {
    fn clone(&self) -> Library {
        Library {
            name: self.name.clone(),
            cells: self.cells.clone(),
            by_name: self.by_name.clone(),
            // The caches are derived data; a clone starts cold.
            flat_cache: RwLock::new(HashMap::new()),
            bristle_cache: RwLock::new(HashMap::new()),
            layers_cache: RwLock::new(HashMap::new()),
        }
    }
}

impl Library {
    /// Creates an empty library.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Library {
        Library {
            name: name.into(),
            cells: Vec::new(),
            by_name: HashMap::new(),
            flat_cache: RwLock::new(HashMap::new()),
            bristle_cache: RwLock::new(HashMap::new()),
            layers_cache: RwLock::new(HashMap::new()),
        }
    }

    /// The library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the library holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds a cell, returning its id, and records its hierarchy's box
    /// and total power. The cell cannot change after this.
    ///
    /// # Errors
    ///
    /// * [`CellError::DuplicateName`] if a cell of the same name exists.
    /// * [`CellError::UnknownCell`] if an instance references a cell id
    ///   not already in this library (which also rules out cycles).
    /// * [`CellError::NotRectilinear`] if a polygon has a diagonal edge.
    /// * [`CellError::OutOfBounds`] if the cell's geometry, flattened
    ///   through its instances, leaves ±[`MAX_COORD`] λ.
    /// * [`CellError::NotSimple`] if a polygon's vertex loop touches
    ///   itself.
    pub fn add_cell(&mut self, cell: Cell) -> Result<CellId, CellError> {
        if self.by_name.contains_key(cell.name()) {
            return Err(CellError::DuplicateName(cell.name().to_owned()));
        }
        for inst in cell.instances() {
            if inst.cell.0 as usize >= self.cells.len() {
                return Err(CellError::UnknownCell(inst.cell));
            }
        }
        let bbox = self.check_geometry(&cell)?;
        let power_ua = cell.instances().iter().fold(cell.power().current_ua(), |sum, inst| {
            sum.saturating_add(self.total_power_ua(inst.cell))
        });
        let id = CellId(self.cells.len() as u32);
        self.by_name.insert(cell.name().to_owned(), id);
        self.cells.push(Entry { cell, bbox, power_ua });
        Ok(id)
    }

    /// A copy of this library with cell `id` replaced by `cell`: every
    /// cell is added afresh in id order, so the new cell, and every cell
    /// above it, passes [`Library::add_cell`]'s checks and gets its
    /// totals recomputed. Ids stay the same.
    ///
    /// # Errors
    ///
    /// Whatever [`Library::add_cell`] reports for `cell` or a cell that
    /// instances it.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    pub fn with_cell_replaced(&self, id: CellId, cell: Cell) -> Result<Library, CellError> {
        assert!((id.0 as usize) < self.cells.len(), "unknown {id}");
        let mut cell = Some(cell);
        let mut lib = Library::new(self.name.clone());
        for (k, old) in self.iter() {
            lib.add_cell(if k == id { cell.take().expect("one id matches") } else { old.clone() })?;
        }
        Ok(lib)
    }

    /// Borrows a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize].cell
    }

    /// Drops every memoized flat view, releasing the cached geometry.
    /// The cache holds one flat copy per cell a caller flattened, so
    /// long-lived libraries that are done with back-end passes can call
    /// this to reclaim the memory. Purely a memory hint: no entry is
    /// ever stale, and later flattens recompute on demand.
    pub fn clear_flat_cache(&self) {
        self.flat_cache.write().expect("flat cache poisoned").clear();
        self.bristle_cache.write().expect("flat cache poisoned").clear();
        self.layers_cache.write().expect("flat cache poisoned").clear();
    }

    /// Number of memoized flat views: shapes, bristles and layer views
    /// together.
    #[cfg(test)]
    fn cached_entries(&self) -> usize {
        self.flat_cache.read().expect("flat cache poisoned").len()
            + self.bristle_cache.read().expect("flat cache poisoned").len()
            + self.layers_cache.read().expect("flat cache poisoned").len()
    }

    /// Looks a cell up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over `(id, cell)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, e)| (CellId(i as u32), &e.cell))
    }

    /// Bounding box of a cell including all sub-instances, as
    /// [`Library::add_cell`] recorded it. `None` for a cell whose entire
    /// hierarchy is empty.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn bbox(&self, id: CellId) -> Option<Rect> {
        self.cells[id.0 as usize].bbox
    }

    /// Checks that `cell`'s polygons are rectilinear and that it lies
    /// within [`BOUND`]: each own item, then each instance placed over
    /// its cell's box. A raw point or wire half-width is checked before
    /// it is added to anything, and a child's box is bounded because
    /// `add_cell` took the child, so no step can overflow. Returns the
    /// box of the cell's hierarchy.
    fn check_geometry(&self, cell: &Cell) -> Result<Option<Rect>, CellError> {
        let fail = |e: fn(String) -> CellError| Err(e(cell.name().to_owned()));
        for s in cell.shapes() {
            let inside = match &s.geom {
                ShapeGeom::Box(r) => BOUND.contains_rect(r),
                ShapeGeom::Wire(p) => {
                    p.width() / 2 <= MAX_COORD
                        && p.points().iter().all(|&q| BOUND.contains(q))
                        && BOUND.contains_rect(&p.bbox())
                }
                ShapeGeom::Poly(p) if !p.is_rectilinear() => return fail(CellError::NotRectilinear),
                ShapeGeom::Poly(p) => p.vertices().iter().all(|&q| BOUND.contains(q)),
            };
            if !inside {
                return fail(CellError::OutOfBounds);
            }
            if matches!(&s.geom, ShapeGeom::Poly(p) if !p.is_simple_rectilinear()) {
                return fail(CellError::NotSimple);
            }
        }
        if !cell.bristles().iter().all(|b| BOUND.contains(b.pos)) {
            return fail(CellError::OutOfBounds);
        }
        let mut bb = cell.local_bbox();
        for inst in cell.instances() {
            let t = &inst.transform;
            if !BOUND.contains(t.offset) {
                return fail(CellError::OutOfBounds);
            }
            if let Some(child) = self.bbox(inst.cell) {
                let moved = t.apply_rect(child);
                if !BOUND.contains_rect(&moved) {
                    return fail(CellError::OutOfBounds);
                }
                bb = Some(bb.map_or(moved, |acc| acc.union(&moved)));
            }
        }
        Ok(bb)
    }

    /// The one depth-first walk behind every flat view. Calls `visit`
    /// for `id` and then, in instance order, for each occurrence below
    /// it, with the occurrence's transform into the frame of the cell
    /// the walk started at and its instance-path prefix (`path` as
    /// given at the start, `a/b/` below it).
    fn walk(
        &self,
        id: CellId,
        t: &Transform,
        path: &mut String,
        visit: &mut impl FnMut(&Cell, &Transform, &str),
    ) {
        let cell = self.cell(id);
        visit(cell, t, path);
        for inst in cell.instances() {
            let len = path.len();
            path.push_str(&inst.name);
            path.push('/');
            self.walk(inst.cell, &t.after(&inst.transform), path, visit);
            path.truncate(len);
        }
    }

    /// Flattens a cell: every shape in the hierarchy, transformed into
    /// the cell's own coordinate frame, in depth-first order. Memoized
    /// for `id` alone: repeated calls return the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn flatten_shared(&self, id: CellId) -> Arc<Vec<Shape>> {
        memoized(&self.flat_cache, id, || {
            let mut out: Vec<Shape> = Vec::new();
            self.walk(id, &Transform::IDENTITY, &mut String::new(), &mut |cell, t, _| {
                out.extend(cell.shapes().iter().map(|s| s.transform(t)));
            });
            out
        })
    }

    /// The per-layer indexed view of `flatten_shared(id)`: each layer's
    /// rectangles, their index and the transistor gates, built once for
    /// extraction and DRC to share. Memoized for `id` alone, like
    /// `flatten_shared`: only [`Library::clear_flat_cache`] drops it, and
    /// clones start cold.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn flat_layers_shared(&self, id: CellId) -> Arc<FlatLayers> {
        memoized(&self.layers_cache, id, || FlatLayers::build(self.flatten_shared(id)))
    }

    /// All bristles of a cell hierarchy, in the cell's frame, with
    /// instance-path-qualified names (`path/name`), in depth-first
    /// order. Memoized for `id` alone, like `flatten_shared`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn flat_bristles_shared(&self, id: CellId) -> Arc<Vec<Bristle>> {
        memoized(&self.bristle_cache, id, || self.flat_bristles_where(id, |_, _, _| true))
    }

    /// The bristles of `flat_bristles_shared(id)` that `keep` accepts,
    /// in the same order, without building or caching the whole list.
    /// `keep` sees each bristle's position and side in `id`'s frame and
    /// its flavor; a bristle's name and flavor are cloned only once it
    /// is kept.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn flat_bristles_where(
        &self,
        id: CellId,
        mut keep: impl FnMut(Point, Side, &Flavor) -> bool,
    ) -> Vec<Bristle> {
        let mut out: Vec<Bristle> = Vec::new();
        self.walk(id, &Transform::IDENTITY, &mut String::new(), &mut |cell, t, path| {
            for b in cell.bristles() {
                let pos = t.apply(b.pos);
                let side = b.side.oriented(t.orient);
                if !keep(pos, side, &b.flavor) {
                    continue;
                }
                let mut name = String::with_capacity(path.len() + b.name.len());
                name.push_str(path);
                name.push_str(&b.name);
                out.push(Bristle {
                    name,
                    layer: b.layer,
                    pos,
                    side,
                    flavor: b.flavor.clone(),
                });
            }
        });
        out
    }

    /// Total power requirement of a cell hierarchy in microamps: the
    /// cell's own demand plus all instanced demands, saturating at
    /// `u64::MAX`, as [`Library::add_cell`] recorded it.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn total_power_ua(&self, id: CellId) -> u64 {
        self.cells[id.0 as usize].power_ua
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bristle::{ActiveWhen, ControlLine, PadKind, Phase};
    use bristle_geom::{Layer, Orientation};

    fn leaf(name: &str) -> Cell {
        let mut c = Cell::new(name);
        c.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 2)));
        c
    }

    #[test]
    fn add_and_find() {
        let mut lib = Library::new("t");
        let id = lib.add_cell(leaf("a")).unwrap();
        assert_eq!(lib.find("a"), Some(id));
        assert_eq!(lib.find("b"), None);
        assert_eq!(lib.len(), 1);
        assert!(!lib.is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut lib = Library::new("t");
        lib.add_cell(leaf("a")).unwrap();
        assert!(matches!(
            lib.add_cell(leaf("a")),
            Err(CellError::DuplicateName(_))
        ));
    }

    #[test]
    fn hierarchy_bbox() {
        let mut lib = Library::new("t");
        let a = lib.add_cell(leaf("a")).unwrap();
        let mut parent = Cell::new("p");
        parent.push_shape(Shape::rect(Layer::Poly, Rect::new(0, 0, 2, 2)));
        parent.push_instance(Instance::new(a, "i0", Transform::translate(Point::new(10, 0))));
        let t = Transform::new(Orientation::R90, Point::new(0, 10));
        parent.push_instance(Instance::new(a, "i1", t));
        let p = lib.add_cell(parent).unwrap();
        // i0: [10,0..14,2]; i1: R90 of [0,0,4,2] = [-2,0,0,4] then +(0,10).
        assert_eq!(lib.bbox(p), Some(Rect::new(-2, 0, 14, 14)));
    }

    #[test]
    fn cycle_rejected() {
        // A cell may instance only cells already in the library, so it
        // can never reach itself or a later cell: no cycle can form.
        let mut lib = Library::new("t");
        let a = lib.add_cell(leaf("a")).unwrap();
        let mut b = leaf("b");
        b.push_instance(Instance::new(CellId(1), "self", Transform::IDENTITY));
        assert_eq!(lib.add_cell(b), Err(CellError::UnknownCell(CellId(1))));
        assert_eq!(lib.len(), 1, "a rejected cell is not added");
        let mut b = leaf("b");
        b.push_instance(Instance::new(a, "x", Transform::IDENTITY));
        assert!(lib.add_cell(b).is_ok());
    }

    /// A cell named `name` holding `shape`.
    fn holding(name: &str, shape: Shape) -> Cell {
        let mut c = Cell::new(name);
        c.push_shape(shape);
        c
    }

    #[test]
    fn geometry_past_the_bound_rejected() {
        let m = MAX_COORD;
        let mut lib = Library::new("t");
        let square = Shape::rect(Layer::Metal, Rect::new(-m, -m, m, m));
        let edge = lib.add_cell(holding("edge", square)).unwrap();
        let wire = |pts: &[(i64, i64)], w| {
            let pts = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            Shape::wire(Layer::Poly, bristle_geom::Path::new(pts, w).unwrap())
        };
        let flush = wire(&[(0, 0), (m, 0)], 2);
        lib.add_cell(holding("flush", flush)).unwrap();
        let vertex = |x| {
            let v = [(0, 0), (x, 0), (x, 2), (0, 2)].map(|(x, y)| Point::new(x, y));
            Shape::polygon(Layer::Metal, bristle_geom::Polygon::new(v.to_vec()).unwrap())
        };
        lib.add_cell(holding("poly", vertex(m))).unwrap();
        let mut past = vec![
            holding("box", Shape::rect(Layer::Metal, Rect::new(0, 0, m + 1, 2))),
            holding("huge", Shape::rect(Layer::Metal, Rect::new(i64::MIN, 0, i64::MAX, 2))),
            // The squared-off corner reaches one past the bound.
            holding("corner", wire(&[(0, 0), (m, 0), (m, 2)], 2)),
            holding("width", wire(&[(0, 0), (2, 0)], i64::MAX - 1)),
            holding("vertex", vertex(m + 1)),
        ];
        let mut bristle = Cell::new("bristle");
        let pos = Point::new(i64::MIN, 0);
        bristle.push_bristle(Bristle::new("b", Layer::Metal, pos, Side::West, Flavor::Signal));
        past.push(bristle);
        for (name, offset) in [("offset", Point::new(i64::MAX, 0)), ("nudge", Point::new(0, 1))] {
            let mut c = Cell::new(name);
            c.push_instance(Instance::new(edge, "e", Transform::translate(offset)));
            past.push(c);
        }
        for cell in past {
            let name = cell.name().to_owned();
            assert_eq!(lib.add_cell(cell), Err(CellError::OutOfBounds(name)));
        }
        assert_eq!(lib.len(), 3, "rejected cells are not added");
        // Any orientation of the full square stays inside.
        let mut spun = Cell::new("spun");
        for (i, o) in Orientation::ALL.into_iter().enumerate() {
            spun.push_instance(Instance::new(edge, format!("e{i}"), Transform::new(o, Point::ORIGIN)));
        }
        lib.add_cell(spun).unwrap();
    }

    #[test]
    fn diagonal_polygons_rejected() {
        let v = [(0, 0), (4, 0), (0, 4)].map(|(x, y)| Point::new(x, y));
        let poly = bristle_geom::Polygon::new(v.to_vec()).unwrap();
        let mut lib = Library::new("t");
        assert_eq!(
            lib.add_cell(holding("tri", Shape::polygon(Layer::Metal, poly))),
            Err(CellError::NotRectilinear("tri".into()))
        );
    }

    #[test]
    fn self_touching_polygons_rejected() {
        let v = [(0, 0), (2, 0), (2, 4), (4, 4), (4, 2), (0, 2)].map(|(x, y)| Point::new(x, y));
        let poly = bristle_geom::Polygon::new(v.to_vec()).unwrap();
        let mut lib = Library::new("t");
        assert_eq!(
            lib.add_cell(holding("eight", Shape::polygon(Layer::Metal, poly))),
            Err(CellError::NotSimple("eight".into()))
        );
    }

    #[test]
    fn flatten_paths_and_transforms() {
        let mut lib = Library::new("t");
        let a = lib.add_cell(leaf("a")).unwrap();
        let mut mid = Cell::new("mid");
        mid.instances = vec![Instance::new(
            a,
            "u",
            Transform::translate(Point::new(5, 0)),
        )];
        let m = lib.add_cell(mid).unwrap();
        let mut top = Cell::new("top");
        top.instances = vec![Instance::new(
            m,
            "v",
            Transform::translate(Point::new(0, 5)),
        )];
        let t = lib.add_cell(top).unwrap();
        let flat = lib.flatten_shared(t);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].bbox(), Rect::new(5, 5, 9, 7));
        assert_eq!(*flat, flatten_oracle(&lib, t));
    }

    #[test]
    fn flat_bristles_qualified() {
        let mut lib = Library::new("t");
        let mut a = leaf("a");
        a.push_bristle(Bristle::new(
            "in",
            Layer::Metal,
            Point::new(0, 1),
            Side::West,
            Flavor::Signal,
        ));
        let aid = lib.add_cell(a).unwrap();
        let mut top = Cell::new("top");
        top.instances = vec![Instance::new(
            aid,
            "reg0",
            Transform::translate(Point::new(7, 0)),
        )];
        let t = lib.add_cell(top).unwrap();
        let bs = lib.flat_bristles_shared(t);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].name, "reg0/in");
        assert_eq!(bs[0].pos, Point::new(7, 1));
    }

    #[test]
    fn power_accumulates() {
        let mut lib = Library::new("t");
        let mut a = leaf("a");
        a.set_power(PowerInfo::new(100));
        let aid = lib.add_cell(a).unwrap();
        let mut top = Cell::new("top");
        top.set_power(PowerInfo::new(7));
        top.instances = vec![
            Instance::new(aid, "i0", Transform::IDENTITY),
            Instance::new(aid, "i1", Transform::translate(Point::new(0, 10))),
        ];
        let t = lib.add_cell(top).unwrap();
        assert_eq!(lib.total_power_ua(t), 207);
        // A total past `u64` saturates instead of wrapping or panicking.
        let mut huge = leaf("huge");
        huge.set_power(PowerInfo::new(u64::MAX / 2 + 1));
        let huge = lib.add_cell(huge).unwrap();
        let mut pair = Cell::new("pair");
        pair.push_instance(Instance::new(huge, "i0", Transform::IDENTITY));
        pair.push_instance(Instance::new(huge, "i1", Transform::IDENTITY));
        let pair = lib.add_cell(pair).unwrap();
        assert_eq!(lib.total_power_ua(pair), u64::MAX);
    }

    #[test]
    fn stretch_line_dedup_and_order() {
        let mut c = Cell::new("c");
        c.add_stretch_y(8);
        c.add_stretch_y(2);
        c.add_stretch_y(8);
        assert_eq!(c.stretch_y(), &[2, 8]);
    }

    /// Flatten oracle: per-level composition, unmemoized. A cell's own
    /// shapes, then each instance's child flatten moved by the instance
    /// transform; the walk composes the transforms instead.
    fn flatten_oracle(lib: &Library, id: CellId) -> Vec<Shape> {
        let cell = lib.cell(id);
        let mut out = cell.shapes().to_vec();
        for inst in cell.instances() {
            let child = flatten_oracle(lib, inst.cell);
            out.extend(child.iter().map(|s| s.transform(&inst.transform)));
        }
        out
    }

    /// Bristle oracle: per-level composition, unmemoized, prefixing the
    /// instance name at each level.
    fn flat_bristles_oracle(lib: &Library, id: CellId) -> Vec<Bristle> {
        let cell = lib.cell(id);
        let mut out = cell.bristles().to_vec();
        for inst in cell.instances() {
            for b in flat_bristles_oracle(lib, inst.cell) {
                let mut tb = b.transform(&inst.transform);
                tb.name = format!("{}/{}", inst.name, tb.name);
                out.push(tb);
            }
        }
        out
    }

    /// Bounding-box oracle: the unmemoized recursion, once per occurrence.
    fn bbox_oracle(lib: &Library, id: CellId) -> Option<Rect> {
        let cell = lib.cell(id);
        let mut bb = cell.local_bbox();
        for inst in cell.instances() {
            if let Some(child_bb) = bbox_oracle(lib, inst.cell) {
                let moved = inst.transform.apply_rect(child_bb);
                bb = Some(bb.map_or(moved, |acc| acc.union(&moved)));
            }
        }
        bb
    }

    /// Power oracle: the unmemoized recursion, once per occurrence.
    fn power_oracle(lib: &Library, id: CellId) -> u64 {
        let cell = lib.cell(id);
        cell.instances().iter().map(|i| power_oracle(lib, i.cell)).sum::<u64>() + cell.power().current_ua()
    }

    /// Every cell's stored box and power equal their oracles.
    fn assert_totals_match(lib: &Library, what: &str) {
        for (id, cell) in lib.iter() {
            assert_eq!(lib.bbox(id), bbox_oracle(lib, id), "{what}: box of `{}`", cell.name());
            assert_eq!(lib.total_power_ua(id), power_oracle(lib, id), "{what}: power of `{}`", cell.name());
        }
    }

    /// Adds `mid` with two instances of `a`, rotated and shifted.
    fn add_with_instances(lib: &mut Library, mut mid: Cell, a: CellId) -> CellId {
        let t = Transform::new(Orientation::R90, Point::new(5, 0));
        mid.push_instance(Instance::new(a, "u0", t));
        mid.push_instance(Instance::new(a, "u1", Transform::translate(Point::new(0, 9))));
        lib.add_cell(mid).unwrap()
    }

    /// Adds `top`: `mid` mirrored and `a` once more beside it.
    fn add_top(lib: &mut Library, mid: CellId, a: CellId) -> CellId {
        let mut top = Cell::new("top");
        let t = Transform::new(Orientation::MR180, Point::new(20, 3));
        top.push_instance(Instance::new(mid, "v0", t));
        top.push_instance(Instance::new(a, "w", Transform::translate(Point::new(-4, -4))));
        lib.add_cell(top).unwrap()
    }

    /// `top` over `mid` over `a`; `mid` holds a transistor crossing, so
    /// the layer view has a gate.
    fn three_level_library() -> (Library, CellId) {
        let mut lib = Library::new("t");
        let a = lib.add_cell(leaf("a")).unwrap();
        let mut mid = Cell::new("mid");
        mid.push_shape(Shape::rect(Layer::Poly, Rect::new(0, 0, 2, 2)));
        mid.push_shape(Shape::rect(Layer::Diffusion, Rect::new(1, -3, 2, 5)));
        let m = add_with_instances(&mut lib, mid, a);
        let top = add_top(&mut lib, m, a);
        (lib, top)
    }

    #[test]
    fn cached_flatten_matches_direct_recursion() {
        let (lib, top) = three_level_library();
        let want = flatten_oracle(&lib, top);
        assert_eq!(*lib.flatten_shared(top), want, "first (cache-filling) call");
        assert_eq!(*lib.flatten_shared(top), want, "second (cached) call");
        // Subtree entries must also match their own direct flatten.
        let mid = lib.find("mid").unwrap();
        assert_eq!(*lib.flatten_shared(mid), flatten_oracle(&lib, mid));
    }

    #[test]
    fn flatten_shared_reuses_allocation() {
        let (lib, top) = three_level_library();
        let a = lib.flatten_shared(top);
        let b = lib.flatten_shared(top);
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out the same Arc");
    }

    /// Like `three_level_library` but with bristles on every level.
    fn bristled_library() -> (Library, CellId) {
        let mut lib = Library::new("t");
        let mut a = leaf("a");
        a.push_bristle(Bristle::new(
            "in",
            Layer::Metal,
            Point::new(0, 1),
            Side::West,
            Flavor::Signal,
        ));
        let aid = lib.add_cell(a).unwrap();
        let mut mid = Cell::new("mid");
        mid.push_bristle(Bristle::new(
            "ctl",
            Layer::Poly,
            Point::new(3, 0),
            Side::South,
            Flavor::Signal,
        ));
        let m = add_with_instances(&mut lib, mid, aid);
        let top = add_top(&mut lib, m, aid);
        (lib, top)
    }

    #[test]
    fn cached_flat_bristles_match_direct_recursion() {
        let (lib, top) = bristled_library();
        let want = flat_bristles_oracle(&lib, top);
        assert!(!want.is_empty());
        assert_eq!(
            *lib.flat_bristles_shared(top),
            want,
            "first (cache-filling) call"
        );
        assert_eq!(*lib.flat_bristles_shared(top), want, "second (cached) call");
        // Subtree entries must also match their own direct flatten.
        let mid = lib.find("mid").unwrap();
        assert_eq!(*lib.flat_bristles_shared(mid), flat_bristles_oracle(&lib, mid));
    }

    #[test]
    fn flat_bristles_shared_reuses_allocation() {
        let (lib, top) = bristled_library();
        let a = lib.flat_bristles_shared(top);
        let b = lib.flat_bristles_shared(top);
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out the same Arc");
    }

    #[test]
    fn empty_cell_bbox_none() {
        let lib = {
            let mut l = Library::new("t");
            l.add_cell(Cell::new("empty")).unwrap();
            l
        };
        assert_eq!(lib.bbox(CellId(0)), None);
    }

    /// Deterministic xorshift64* PRNG (no external property-test crate).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn coord(&mut self, span: i64) -> i64 {
            self.below(2 * span as usize + 1) as i64 - span
        }

        fn point(&mut self, span: i64) -> Point {
            Point::new(self.coord(span), self.coord(span))
        }
    }

    /// A box, wire or rectilinear polygon, half of them labelled.
    fn random_shape(rng: &mut Rng) -> Shape {
        let layer = Layer::ALL[rng.below(Layer::ALL.len())];
        let at = rng.point(20);
        let (w, h) = (1 + rng.below(6) as i64, 1 + rng.below(6) as i64);
        let shape = match rng.below(3) {
            0 => Shape::rect(layer, Rect::new(at.x, at.y, at.x + w, at.y + h)),
            1 => {
                let turn = Point::new(at.x + w, at.y);
                let end = Point::new(turn.x, turn.y - h);
                let path = bristle_geom::Path::new(vec![at, turn, end], 2).unwrap();
                Shape::wire(layer, path)
            }
            _ => {
                // An L: a w×h box with its top-right quadrant cut away.
                let (x, y) = (at.x, at.y);
                let v = [(0, 0), (2 * w, 0), (2 * w, h), (w, h), (w, 2 * h), (0, 2 * h)];
                let poly = bristle_geom::Polygon::new(
                    v.iter().map(|&(dx, dy)| Point::new(x + dx, y + dy)).collect(),
                )
                .unwrap();
                Shape::polygon(layer, poly)
            }
        };
        if rng.below(2) == 0 {
            shape.with_label(format!("n{}", rng.below(4)))
        } else {
            shape
        }
    }

    /// A bristle on any side with a control, clock, pad or signal flavor.
    fn random_bristle(rng: &mut Rng, k: usize) -> Bristle {
        let phase = if rng.below(2) == 0 { Phase::Phi1 } else { Phase::Phi2 };
        let flavor = match rng.below(4) {
            0 => Flavor::Control(ControlLine {
                field: format!("f{}", rng.below(3)),
                active: ActiveWhen::Equals(rng.below(4) as u64),
                phase,
            }),
            1 => Flavor::Clock(phase),
            2 => Flavor::Pad(PadKind::ALL[rng.below(PadKind::ALL.len())]),
            _ => Flavor::Signal,
        };
        let layer = [Layer::Metal, Layer::Poly, Layer::Diffusion][rng.below(3)];
        // Positions on a coarse grid so some land on y = 0 after a move.
        let pos = Point::new(4 * rng.coord(4), 4 * rng.coord(4));
        Bristle::new(format!("b{k}"), layer, pos, Side::ALL[rng.below(4)], flavor)
    }

    /// A random acyclic hierarchy of 3–4 levels whose cells share
    /// children, placed in all eight orientations; returns the top cell.
    fn random_library(rng: &mut Rng) -> (Library, CellId) {
        let mut lib = Library::new("random");
        let mut levels: Vec<Vec<CellId>> = Vec::new();
        let depth = 3 + rng.below(2);
        for level in 0..depth {
            let count = if level + 1 == depth { 1 } else { 2 + rng.below(2) };
            let mut ids = Vec::new();
            for c in 0..count {
                let mut cell = Cell::new(format!("l{level}c{c}"));
                for _ in 0..rng.below(4) {
                    cell.push_shape(random_shape(rng));
                }
                for k in 0..rng.below(4) {
                    cell.push_bristle(random_bristle(rng, k));
                }
                cell.set_power(PowerInfo::new(rng.below(100) as u64));
                if level > 0 {
                    for i in 0..1 + rng.below(3) {
                        // The first instance is of the level just below,
                        // so the hierarchy has its full depth.
                        let pool: Vec<CellId> = if i == 0 {
                            levels[level - 1].clone()
                        } else {
                            levels.iter().flatten().copied().collect()
                        };
                        let child = pool[rng.below(pool.len())];
                        let orient = Orientation::ALL[rng.below(8)];
                        let t = Transform::new(orient, rng.point(40));
                        cell.push_instance(Instance::new(child, format!("i{i}"), t));
                    }
                }
                ids.push(lib.add_cell(cell).unwrap());
            }
            levels.push(ids);
        }
        (lib, levels[depth - 1][0])
    }

    /// The three filters the flat views serve: pass 2's south-edge
    /// controls and clocks, pass 3's pads, and one on position alone.
    fn filters() -> [fn(Point, Side, &Flavor) -> bool; 3] {
        [
            |pos, side, flavor| {
                pos.y <= 0
                    && side == Side::South
                    && matches!(flavor, Flavor::Control(_) | Flavor::Clock(_))
            },
            |_, _, flavor| matches!(flavor, Flavor::Pad(_)),
            |pos, _, _| pos.x > 0,
        ]
    }

    /// Every flat view of `top` agrees with its oracle; returns how many
    /// bristles each filter kept.
    fn assert_views_match(lib: &Library, top: CellId, what: &str) -> [usize; 3] {
        assert_eq!(*lib.flatten_shared(top), flatten_oracle(lib, top), "{what}: shapes");
        let bristles = flat_bristles_oracle(lib, top);
        assert_eq!(*lib.flat_bristles_shared(top), bristles, "{what}: bristles");
        assert_eq!(lib.bbox(top), bbox_oracle(lib, top), "{what}: bbox");
        filters().map(|keep| {
            let want: Vec<Bristle> =
                bristles.iter().filter(|b| keep(b.pos, b.side, &b.flavor)).cloned().collect();
            assert_eq!(lib.flat_bristles_where(top, keep), want, "{what}: filtered");
            want.len()
        })
    }

    #[test]
    fn walk_matches_oracles_on_random_hierarchies() {
        let mut rng = Rng(0xB215_713E);
        let mut kept = [0usize; 3];
        for case in 0..200 {
            let (mut lib, top) = random_library(&mut rng);
            let what = format!("case {case}");
            let counts = assert_views_match(&lib, top, &what);
            for (k, c) in kept.iter_mut().zip(counts) {
                *k += c;
            }
            assert_totals_match(&lib, &what);
            // A cell added over cached ones sees them as they are.
            let leaf = CellId(0);
            let mut wrap = Cell::new("wrap");
            wrap.push_instance(Instance::new(top, "top", Transform::IDENTITY));
            let orient = Orientation::ALL[rng.below(8)];
            let t = Transform::new(orient, rng.point(40));
            wrap.push_instance(Instance::new(leaf, "extra", t));
            let wrap = lib.add_cell(wrap).unwrap();
            assert_views_match(&lib, wrap, &format!("{what} after add_cell"));
            assert_views_match(&lib, top, &format!("{what} after add_cell"));
            assert_totals_match(&lib, &format!("{what} after add_cell"));
            lib.clear_flat_cache();
            assert_eq!(lib.cached_entries(), 0, "{what}");
            assert_views_match(&lib, wrap, &format!("{what} after clear_flat_cache"));
            assert_views_match(&lib.clone(), wrap, &format!("{what} on a clone"));
        }
        assert!(kept.iter().all(|&k| k > 0), "every filter keeps some bristles: {kept:?}");
    }

    #[test]
    fn flattening_caches_only_the_requested_cell() {
        let (lib, top) = bristled_library();
        let _ = lib.flatten_shared(top);
        assert_eq!(lib.cached_entries(), 1, "no entry for `mid` or `a`");
        let _ = lib.flat_bristles_shared(top);
        assert_eq!(lib.cached_entries(), 2);
        let _ = lib.flat_bristles_where(top, |_, _, _| true);
        let _ = lib.bbox(top);
        assert_eq!(lib.cached_entries(), 2, "filtered walks and boxes cache nothing");
        assert_eq!(lib.clone().cached_entries(), 0, "clones start cold");
    }

    /// The layer view holds each flat shape's non-degenerate rects on its
    /// layer, in flat order, each traced back to its shape.
    fn assert_layer_view_matches(lib: &Library, id: CellId) {
        let view = lib.flat_layers_shared(id);
        let flat = flatten_oracle(lib, id);
        assert_eq!(view.shapes(), &flat[..]);
        for layer in Layer::ALL {
            let mut want: Vec<(Rect, usize)> = Vec::new();
            for (k, s) in flat.iter().enumerate().filter(|(_, s)| s.layer == layer) {
                want.extend(s.to_rects().into_iter().filter(|r| !r.is_degenerate()).map(|r| (r, k)));
            }
            let rects = view.rects(layer);
            assert_eq!(rects, want.iter().map(|&(r, _)| r).collect::<Vec<_>>(), "{layer:?}");
            for (k, &(_, owner)) in want.iter().enumerate() {
                assert_eq!(view.owner(layer, k), &flat[owner], "{layer:?} rect {k}");
            }
            assert!(std::ptr::eq(view.rect_index(layer).rects(), rects), "{layer:?}: one copy of the rects");
        }
    }

    #[test]
    fn flat_layers_are_cached_once_and_invalidated_with_the_flat_view() {
        let (lib, top) = three_level_library();
        assert_layer_view_matches(&lib, top);
        let view = lib.flat_layers_shared(top);
        assert!(Arc::ptr_eq(&view, &lib.flat_layers_shared(top)), "cache must hand out the same Arc");
        assert_eq!(lib.cached_entries(), 2, "the view and the flat shapes it reads, for `top` only");
        let poly = view.rects(Layer::Poly);
        let want = gate_regions_oracle(poly, view.rects(Layer::Diffusion));
        assert!(!want.is_empty());
        assert_eq!(view.gates(), &want[..]);
        // `clear_flat_cache` drops the view together with the flat
        // shapes, and a clone starts cold.
        assert_eq!(lib.clone().cached_entries(), 0, "clones start cold");
        lib.clear_flat_cache();
        assert_eq!(lib.cached_entries(), 0);
        assert!(!Arc::ptr_eq(&view, &lib.flat_layers_shared(top)));
        assert_layer_view_matches(&lib, top);
    }

    /// A replaced cell passes `add_cell`'s checks afresh, and every cell
    /// above it gets its totals and flat views from the new one.
    #[test]
    fn replacing_a_cell_rebuilds_everything_above_it() {
        let (lib, top) = bristled_library();
        let a = lib.find("a").unwrap();
        let mut wider = lib.cell(a).clone();
        wider.push_shape(Shape::rect(Layer::Metal, Rect::new(50, 50, 54, 52)));
        wider.set_power(PowerInfo::new(5));
        let _ = lib.flatten_shared(top);
        let new = lib.with_cell_replaced(a, wider).unwrap();
        assert_eq!(new.len(), lib.len());
        assert_eq!(new.find("top"), Some(top), "ids stay the same");
        assert_views_match(&new, top, "replaced");
        assert_totals_match(&new, "replaced");
        assert!(new.flatten_shared(top).len() > lib.flatten_shared(top).len());
        assert_eq!(new.total_power_ua(top), 15, "`a` is placed three times");
        let mut past = lib.cell(a).clone();
        past.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, MAX_COORD + 1, 2)));
        assert_eq!(lib.with_cell_replaced(a, past).err(), Some(CellError::OutOfBounds("a".into())));
    }

    /// Gates by brute force, with no buried contacts: every poly ∩
    /// diffusion region, sorted, first poly rect kept.
    fn gate_regions_oracle(poly: &[Rect], diff: &[Rect]) -> Vec<(Rect, usize)> {
        let mut gates: Vec<(Rect, usize)> = Vec::new();
        for (pi, p) in poly.iter().enumerate() {
            gates.extend(diff.iter().filter_map(|d| p.intersection(d)).map(|g| (g, pi)));
        }
        gates.sort_unstable();
        gates.dedup_by_key(|&mut (g, _)| g);
        gates
    }

    #[test]
    fn bbox_boxes_each_shared_cell_once() {
        // Sixty levels, each instancing the one below twice: 2^60
        // occurrences, which a once-per-occurrence recursion never ends.
        let mut lib = Library::new("chain");
        let mut l0 = leaf("l0");
        l0.set_power(PowerInfo::new(3));
        let mut below = lib.add_cell(l0).unwrap();
        for level in 1..=60 {
            let mut cell = Cell::new(format!("l{level}"));
            cell.push_instance(Instance::new(below, "a", Transform::IDENTITY));
            let t = Transform::new(Orientation::MR90, Point::new(level, 0));
            cell.push_instance(Instance::new(below, "b", t));
            below = lib.add_cell(cell).unwrap();
        }
        let bb = lib.bbox(below).unwrap();
        assert!(bb.width() >= 4 && bb.height() >= 4, "{bb}");
        assert_eq!(lib.total_power_ua(below), 3 << 60, "3 µA in each of 2^60 leaves");
    }
}
