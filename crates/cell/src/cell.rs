//! Cells, instances and the cell library.
//!
//! *"The fundamental unit in the Bristle Block system is the cell, which
//! may contain geometrical primitives and references to other cells. These
//! cells to the LSI designer can be equated to the programmer's
//! subroutines."* — Johannsen, DAC 1979.
//!
//! # The flatten cache
//!
//! Flattening is the gateway to every geometry back-end pass (DRC,
//! extraction, CIF output, SVG, area accounting), and one compiled chip
//! is flattened by several of them, at its core and at its top cell.
//! [`Library`] therefore memoizes flattening per cell
//! ([`Library::flatten_shared`]), so each subtree is flattened once and
//! re-used by every parent and every pass:
//!
//! * Each cache entry holds the cell's **subtree-local** flat shapes —
//!   every shape of the cell and its descendants, transformed into the
//!   cell's own coordinate frame.
//! * A parent entry is composed from child entries by applying the
//!   instance transform to each cached child shape. Transform
//!   composition is associative
//!   (`s.transform(a).transform(b) == s.transform(b.after(&a))`), so the
//!   composed result is identical to a direct recursive flatten, in the
//!   same depth-first order.
//! * **Invalidation:** any mutation entry point ([`Library::cell_mut`],
//!   [`Library::add_instance`]) clears the whole cache. `add_cell` keeps
//!   it: a new cell can only reference existing cells, so existing
//!   entries stay valid.
//! * The cache sits behind an `RwLock`, so filling it needs only
//!   `&Library` and the library stays `Sync`; cloning a library starts
//!   with a cold cache.
//! * Bristle flattening ([`Library::flat_bristles_shared`]) is memoized
//!   the same way, in a sibling cache with identical invariants (both
//!   caches are cleared together).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use bristle_geom::{Rect, Transform};
#[cfg(test)]
use bristle_geom::Point;

use crate::bristle::Bristle;
use crate::power::PowerInfo;
use crate::reprs::CellReprs;
use crate::shape::Shape;

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
    /// Adding this instance would create a hierarchy cycle.
    Cycle(String),
    /// The cell has no geometry, so the requested bbox is undefined.
    EmptyCell(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::DuplicateName(n) => write!(f, "duplicate cell name `{n}`"),
            CellError::UnknownCell(id) => write!(f, "unknown {id}"),
            CellError::UnknownName(n) => write!(f, "no cell named `{n}`"),
            CellError::Cycle(n) => write!(f, "instancing `{n}` would create a cycle"),
            CellError::EmptyCell(n) => write!(f, "cell `{n}` has no geometry"),
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
    /// x-positions at which the cell may be stretched horizontally.
    stretch_x: Vec<i64>,
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
            stretch_x: Vec::new(),
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

    /// Mutable access to shapes (used by the stretch engine).
    pub(crate) fn shapes_mut(&mut self) -> &mut Vec<Shape> {
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

    /// Mutable access to instances (used by the stretch engine).
    pub(crate) fn instances_mut(&mut self) -> &mut Vec<Instance> {
        &mut self.instances
    }

    /// Adds an instance to a cell that is **not yet** in a library.
    ///
    /// [`Library::add_cell`] validates that every referenced id already
    /// exists in the library, which keeps the hierarchy acyclic. For cells
    /// already in a library, prefer [`Library::add_instance`].
    pub fn push_instance(&mut self, instance: Instance) {
        self.instances.push(instance);
    }

    /// The cell's bristles.
    #[must_use]
    pub fn bristles(&self) -> &[Bristle] {
        &self.bristles
    }

    /// Mutable access to bristles.
    pub fn bristles_mut(&mut self) -> &mut Vec<Bristle> {
        &mut self.bristles
    }

    /// Adds a bristle.
    pub fn push_bristle(&mut self, bristle: Bristle) {
        self.bristles.push(bristle);
    }

    /// Declared horizontal stretch lines (x positions).
    #[must_use]
    pub fn stretch_x(&self) -> &[i64] {
        &self.stretch_x
    }

    /// Declared vertical stretch lines (y positions).
    #[must_use]
    pub fn stretch_y(&self) -> &[i64] {
        &self.stretch_y
    }

    /// Declares a horizontal stretch line at `x`: geometry strictly right
    /// of the line shifts, geometry crossing it widens.
    pub fn add_stretch_x(&mut self, x: i64) {
        if !self.stretch_x.contains(&x) {
            self.stretch_x.push(x);
            self.stretch_x.sort_unstable();
        }
    }

    /// Declares a vertical stretch line at `y`.
    pub fn add_stretch_y(&mut self, y: i64) {
        if !self.stretch_y.contains(&y) {
            self.stretch_y.push(y);
            self.stretch_y.sort_unstable();
        }
    }

    pub(crate) fn set_stretch_x(&mut self, xs: Vec<i64>) {
        self.stretch_x = xs;
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
        let mut bb: Option<Rect> = None;
        for s in &self.shapes {
            let b = s.bbox();
            bb = Some(bb.map_or(b, |acc| acc.union(&b)));
        }
        for b in &self.bristles {
            let r = Rect::from_points(b.pos, b.pos);
            bb = Some(bb.map_or(r, |acc| acc.union(&r)));
        }
        bb
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
/// Flattening is memoized per cell ([`Library::flatten_shared`]); the
/// mutation entry points [`Library::cell_mut`] and
/// [`Library::add_instance`] clear the cache.
#[derive(Debug, Default)]
pub struct Library {
    name: String,
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
    /// Memoized subtree-local flat shapes, keyed by cell. Cleared on any
    /// mutation; see the module docs.
    flat_cache: RwLock<HashMap<CellId, Arc<Vec<Shape>>>>,
    /// Memoized subtree-local flat bristles, same invariants as
    /// `flat_cache` (cleared together with it).
    bristle_cache: RwLock<HashMap<CellId, Arc<Vec<Bristle>>>>,
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

    /// Adds a cell, returning its id.
    ///
    /// # Errors
    ///
    /// * [`CellError::DuplicateName`] if a cell of the same name exists.
    /// * [`CellError::UnknownCell`] if an instance references a cell id
    ///   not already in this library (which also rules out cycles).
    pub fn add_cell(&mut self, cell: Cell) -> Result<CellId, CellError> {
        if self.by_name.contains_key(cell.name()) {
            return Err(CellError::DuplicateName(cell.name().to_owned()));
        }
        for inst in cell.instances() {
            if inst.cell.0 as usize >= self.cells.len() {
                return Err(CellError::UnknownCell(inst.cell));
            }
        }
        let id = CellId(self.cells.len() as u32);
        self.by_name.insert(cell.name().to_owned(), id);
        self.cells.push(cell);
        Ok(id)
    }

    /// Borrows a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Mutably borrows a cell. Invalidates the flatten cache: the caller
    /// may change geometry this cell's ancestors have cached.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        self.invalidate_flat_cache();
        &mut self.cells[id.0 as usize]
    }

    fn invalidate_flat_cache(&self) {
        self.flat_cache.write().expect("flat cache poisoned").clear();
        self.bristle_cache
            .write()
            .expect("bristle cache poisoned")
            .clear();
    }

    /// Drops every memoized flatten entry, releasing the cached
    /// geometry. The cache holds subtree-local flat copies for each
    /// flattened cell (across a deep hierarchy that can sum to several
    /// times one top-level flatten), so long-lived libraries that are
    /// done with back-end passes can call this to reclaim the memory.
    /// Purely a performance hint: later flattens recompute on demand.
    pub fn clear_flat_cache(&self) {
        self.invalidate_flat_cache();
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
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Adds an instance of `child` to `parent`.
    ///
    /// Because `add_cell` only accepts instances of already-present cells,
    /// the hierarchy is acyclic by construction as long as `child < parent`
    /// in insertion order; this method additionally rejects any instance
    /// that would point forward (to the cell itself or a later cell), which
    /// keeps the DAG invariant under post-hoc editing.
    ///
    /// # Errors
    ///
    /// * [`CellError::UnknownCell`] if either id is invalid.
    /// * [`CellError::Cycle`] if `child >= parent` in insertion order.
    pub fn add_instance(
        &mut self,
        parent: CellId,
        child: CellId,
        name: impl Into<String>,
        transform: Transform,
    ) -> Result<(), CellError> {
        if parent.0 as usize >= self.cells.len() {
            return Err(CellError::UnknownCell(parent));
        }
        if child.0 as usize >= self.cells.len() {
            return Err(CellError::UnknownCell(child));
        }
        if child.0 >= parent.0 {
            return Err(CellError::Cycle(self.cell(child).name().to_owned()));
        }
        self.invalidate_flat_cache();
        self.cells[parent.0 as usize]
            .instances
            .push(Instance::new(child, name, transform));
        Ok(())
    }

    /// Bounding box of a cell including all sub-instances.
    ///
    /// Returns `None` for a cell whose entire hierarchy is empty.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn bbox(&self, id: CellId) -> Option<Rect> {
        let cell = self.cell(id);
        let mut bb = cell.local_bbox();
        for inst in cell.instances() {
            if let Some(child_bb) = self.bbox(inst.cell) {
                let moved = inst.transform.apply_rect(child_bb);
                bb = Some(bb.map_or(moved, |acc| acc.union(&moved)));
            }
        }
        bb
    }

    /// Flattens a cell: every shape in the hierarchy, transformed into
    /// the cell's own coordinate frame, in depth-first order. Memoized
    /// and shared: repeated calls for the same (unmutated) cell return
    /// the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn flatten_shared(&self, id: CellId) -> Arc<Vec<Shape>> {
        if let Some(hit) = self.flat_cache.read().expect("flat cache poisoned").get(&id) {
            return Arc::clone(hit);
        }
        let cell = self.cell(id);
        let mut out: Vec<Shape> = cell.shapes().to_vec();
        for inst in cell.instances() {
            // Compose the child's cached subtree at this instance by
            // transforming its shapes. This equals a direct recursive
            // flatten because shape transforms compose.
            let child = self.flatten_shared(inst.cell);
            out.extend(child.iter().map(|s| s.transform(&inst.transform)));
        }
        let arc = Arc::new(out);
        // Racing computations of the same cell produce identical values;
        // keep whichever entry landed first.
        Arc::clone(
            self.flat_cache
                .write()
                .expect("flat cache poisoned")
                .entry(id)
                .or_insert(arc),
        )
    }

    /// All bristles of a cell hierarchy, with instance-path-qualified
    /// names (`path/name`), through the memoized cache, sharing the
    /// result. Entries are subtree-local (names relative to the
    /// cell, positions in the cell's frame) and composed at parents by
    /// transforming positions/sides and prefixing the instance name —
    /// exactly the flatten-cache discipline `flatten_shared` uses, with
    /// the same invalidation invariants: any mutation entry point
    /// clears it, `add_cell` keeps it, clones start cold.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn flat_bristles_shared(&self, id: CellId) -> Arc<Vec<Bristle>> {
        if let Some(hit) = self
            .bristle_cache
            .read()
            .expect("bristle cache poisoned")
            .get(&id)
        {
            return Arc::clone(hit);
        }
        let cell = self.cell(id);
        let mut out: Vec<Bristle> = cell.bristles().to_vec();
        for inst in cell.instances() {
            let child = self.flat_bristles_shared(inst.cell);
            out.reserve(child.len());
            for b in child.iter() {
                let mut tb = b.transform(&inst.transform);
                tb.name = format!("{}/{}", inst.name, tb.name);
                out.push(tb);
            }
        }
        let arc = Arc::new(out);
        Arc::clone(
            self.bristle_cache
                .write()
                .expect("bristle cache poisoned")
                .entry(id)
                .or_insert(arc),
        )
    }

    /// Total power requirement of a cell hierarchy in microamps: the
    /// cell's own demand plus all instanced demands.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[must_use]
    pub fn total_power_ua(&self, id: CellId) -> u64 {
        let cell = self.cell(id);
        let own = cell.power().current_ua();
        own + cell
            .instances()
            .iter()
            .map(|i| self.total_power_ua(i.cell))
            .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bristle::{Flavor, Side};
    use crate::shape::Shape;
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
        let p = lib.add_cell(parent).unwrap();
        lib.add_instance(p, a, "i0", Transform::translate(Point::new(10, 0)))
            .unwrap();
        lib.add_instance(
            p,
            a,
            "i1",
            Transform::new(Orientation::R90, Point::new(0, 10)),
        )
        .unwrap();
        // i0: [10,0..14,2]; i1: R90 of [0,0,4,2] = [-2,0,0,4] then +(0,10).
        assert_eq!(lib.bbox(p), Some(Rect::new(-2, 0, 14, 14)));
    }

    #[test]
    fn cycle_rejected() {
        let mut lib = Library::new("t");
        let a = lib.add_cell(leaf("a")).unwrap();
        let b = lib.add_cell(leaf("b")).unwrap();
        // Forward reference b -> b and b -> later are cycles.
        assert!(matches!(
            lib.add_instance(a, b, "x", Transform::IDENTITY),
            Err(CellError::Cycle(_))
        ));
        assert!(matches!(
            lib.add_instance(a, a, "x", Transform::IDENTITY),
            Err(CellError::Cycle(_))
        ));
        assert!(lib.add_instance(b, a, "x", Transform::IDENTITY).is_ok());
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
        assert_eq!(*flat, flatten_reference(&lib, t));
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
    }

    #[test]
    fn stretch_line_dedup_and_order() {
        let mut c = Cell::new("c");
        c.add_stretch_x(8);
        c.add_stretch_x(2);
        c.add_stretch_x(8);
        assert_eq!(c.stretch_x(), &[2, 8]);
    }

    /// Reference flatten: the direct recursion the cache must match.
    fn flatten_reference(lib: &Library, id: CellId) -> Vec<Shape> {
        fn go(lib: &Library, id: CellId, t: &Transform, out: &mut Vec<Shape>) {
            let cell = lib.cell(id);
            out.extend(cell.shapes().iter().map(|s| s.transform(t)));
            for inst in cell.instances() {
                go(lib, inst.cell, &t.after(&inst.transform), out);
            }
        }
        let mut out = Vec::new();
        go(lib, id, &Transform::IDENTITY, &mut out);
        out
    }

    fn three_level_library() -> (Library, CellId) {
        let mut lib = Library::new("t");
        let a = lib.add_cell(leaf("a")).unwrap();
        let mut mid = Cell::new("mid");
        mid.push_shape(Shape::rect(Layer::Poly, Rect::new(0, 0, 2, 2)));
        let m = lib.add_cell(mid).unwrap();
        lib.add_instance(m, a, "u0", Transform::new(Orientation::R90, Point::new(5, 0)))
            .unwrap();
        lib.add_instance(m, a, "u1", Transform::translate(Point::new(0, 9)))
            .unwrap();
        let top = lib.add_cell(Cell::new("top")).unwrap();
        lib.add_instance(
            top,
            m,
            "v0",
            Transform::new(Orientation::MR180, Point::new(20, 3)),
        )
        .unwrap();
        lib.add_instance(top, a, "w", Transform::translate(Point::new(-4, -4)))
            .unwrap();
        (lib, top)
    }

    #[test]
    fn cached_flatten_matches_direct_recursion() {
        let (lib, top) = three_level_library();
        let want = flatten_reference(&lib, top);
        assert_eq!(*lib.flatten_shared(top), want, "first (cache-filling) call");
        assert_eq!(*lib.flatten_shared(top), want, "second (cached) call");
        // Subtree entries must also match their own direct flatten.
        let mid = lib.find("mid").unwrap();
        assert_eq!(*lib.flatten_shared(mid), flatten_reference(&lib, mid));
    }

    #[test]
    fn flatten_shared_reuses_allocation() {
        let (lib, top) = three_level_library();
        let a = lib.flatten_shared(top);
        let b = lib.flatten_shared(top);
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out the same Arc");
    }

    #[test]
    fn mutation_invalidates_flatten_cache() {
        let (mut lib, top) = three_level_library();
        let before = lib.flatten_shared(top);
        let a = lib.find("a").unwrap();
        lib.cell_mut(a)
            .push_shape(Shape::rect(Layer::Metal, Rect::new(50, 50, 54, 52)));
        let after = lib.flatten_shared(top);
        assert_eq!(*after, flatten_reference(&lib, top));
        assert!(after.len() > before.len());
        // Adding an instance invalidates too.
        let count = lib.flatten_shared(top).len();
        lib.add_instance(top, a, "w2", Transform::translate(Point::new(40, 0)))
            .unwrap();
        assert!(lib.flatten_shared(top).len() > count);
        assert_eq!(*lib.flatten_shared(top), flatten_reference(&lib, top));
    }

    /// Reference bristle flatten: the direct recursion the cache must
    /// match (this was the bristle flatten before memoization).
    fn flat_bristles_reference(lib: &Library, id: CellId) -> Vec<Bristle> {
        fn go(lib: &Library, id: CellId, t: &Transform, path: &str, out: &mut Vec<Bristle>) {
            for b in lib.cell(id).bristles() {
                let mut tb = b.transform(t);
                if !path.is_empty() {
                    tb.name = format!("{path}/{}", tb.name);
                }
                out.push(tb);
            }
            for inst in lib.cell(id).instances() {
                let child_t = t.after(&inst.transform);
                let child_path = if path.is_empty() {
                    inst.name.clone()
                } else {
                    format!("{path}/{}", inst.name)
                };
                go(lib, inst.cell, &child_t, &child_path, out);
            }
        }
        let mut out = Vec::new();
        go(lib, id, &Transform::IDENTITY, "", &mut out);
        out
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
        let m = lib.add_cell(mid).unwrap();
        lib.add_instance(m, aid, "u0", Transform::new(Orientation::R90, Point::new(5, 0)))
            .unwrap();
        lib.add_instance(m, aid, "u1", Transform::translate(Point::new(0, 9)))
            .unwrap();
        let top = lib.add_cell(Cell::new("top")).unwrap();
        lib.add_instance(
            top,
            m,
            "v0",
            Transform::new(Orientation::MR180, Point::new(20, 3)),
        )
        .unwrap();
        lib.add_instance(top, aid, "w", Transform::translate(Point::new(-4, -4)))
            .unwrap();
        (lib, top)
    }

    #[test]
    fn cached_flat_bristles_match_direct_recursion() {
        let (lib, top) = bristled_library();
        let want = flat_bristles_reference(&lib, top);
        assert!(!want.is_empty());
        assert_eq!(
            *lib.flat_bristles_shared(top),
            want,
            "first (cache-filling) call"
        );
        assert_eq!(*lib.flat_bristles_shared(top), want, "second (cached) call");
        // Subtree entries must also match their own direct flatten.
        let mid = lib.find("mid").unwrap();
        assert_eq!(*lib.flat_bristles_shared(mid), flat_bristles_reference(&lib, mid));
    }

    #[test]
    fn flat_bristles_shared_reuses_allocation() {
        let (lib, top) = bristled_library();
        let a = lib.flat_bristles_shared(top);
        let b = lib.flat_bristles_shared(top);
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out the same Arc");
    }

    #[test]
    fn mutation_invalidates_bristle_cache() {
        let (mut lib, top) = bristled_library();
        let before = lib.flat_bristles_shared(top).len();
        let a = lib.find("a").unwrap();
        // `cell_mut` must clear the cache.
        lib.cell_mut(a).push_bristle(Bristle::new(
            "extra",
            Layer::Metal,
            Point::new(2, 2),
            Side::East,
            Flavor::Signal,
        ));
        let after = lib.flat_bristles_shared(top);
        assert_eq!(*after, flat_bristles_reference(&lib, top));
        assert!(after.len() > before);
        // `add_instance` must clear it too.
        let count = lib.flat_bristles_shared(top).len();
        lib.add_instance(top, a, "w2", Transform::translate(Point::new(40, 0)))
            .unwrap();
        assert!(lib.flat_bristles_shared(top).len() > count);
        assert_eq!(
            *lib.flat_bristles_shared(top),
            flat_bristles_reference(&lib, top)
        );
        // `clear_flat_cache` clears; recompute still matches.
        lib.clear_flat_cache();
        assert_eq!(
            *lib.flat_bristles_shared(top),
            flat_bristles_reference(&lib, top)
        );
        // Clones start cold and still agree.
        let cloned = lib.clone();
        assert_eq!(
            cloned.flat_bristles_shared(top),
            lib.flat_bristles_shared(top)
        );
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
}
