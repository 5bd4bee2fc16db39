//! Rectilinear geometry primitives shared by the cell templates and the
//! placer/router.
//!
//! All coordinates are in nanometres on an integer-friendly `f64` grid.

use std::fmt;

/// A point in layout space (nanometres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate in nanometres.
    pub x: f64,
    /// Y coordinate in nanometres.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Translates the point by (dx, dy).
    pub fn translated(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned rectangle (nanometres), defined by its lower-left and
/// upper-right corners.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner coordinates, normalising the
    /// order.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Self {
            min: Point::new(x0.min(x1), y0.min(y1)),
            max: Point::new(x0.max(x1), y0.max(y1)),
        }
    }

    /// Creates a rectangle from its origin (lower-left) and size.
    pub fn from_size(origin: Point, width: f64, height: f64) -> Self {
        Self::new(origin.x, origin.y, origin.x + width, origin.y + height)
    }

    /// Width in nanometres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in nanometres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in nm².
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Returns `true` when the rectangle overlaps `other` with positive
    /// area (touching edges do not count as overlap).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// Returns `true` when `point` lies inside or on the boundary.
    pub fn contains_point(&self, point: &Point) -> bool {
        point.x >= self.min.x
            && point.x <= self.max.x
            && point.y >= self.min.y
            && point.y <= self.max.y
    }

    /// Returns `true` when `other` lies entirely inside (or on the boundary
    /// of) this rectangle.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min.x >= self.min.x
            && other.min.y >= self.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The spacing between two non-overlapping rectangles (Euclidean
    /// distance between their closest edges); `0` when they overlap or
    /// touch.
    pub fn spacing_to(&self, other: &Rect) -> f64 {
        let dx = (other.min.x - self.max.x)
            .max(self.min.x - other.max.x)
            .max(0.0);
        let dy = (other.min.y - self.max.y)
            .max(self.min.y - other.max.y)
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// The rectangle translated by (dx, dy).
    pub fn translated(&self, dx: f64, dy: f64) -> Rect {
        Rect {
            min: self.min.translated(dx, dy),
            max: self.max.translated(dx, dy),
        }
    }

    /// The rectangle expanded by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect::new(
            self.min.x - margin,
            self.min.y - margin,
            self.max.x + margin,
            self.max.y + margin,
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} - {}]", self.min, self.max)
    }
}

/// Placement orientation of a cell instance (subset of the GDS/DEF
/// orientations sufficient for row-based layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// No transformation.
    #[default]
    R0,
    /// Mirrored about the X axis (flipped vertically), the usual orientation
    /// of odd rows in standard-cell layout.
    MX,
    /// Mirrored about the Y axis.
    MY,
    /// Rotated 180 degrees.
    R180,
}

/// Half-perimeter wire length of a set of points — the standard placement
/// cost metric (Section 2.3 of the paper).
pub fn half_perimeter_wire_length(points: &[Point]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in points {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    (max_x - min_x) + (max_y - min_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_normalises_corners() {
        let r = Rect::new(10.0, 20.0, 0.0, 5.0);
        assert_eq!(r.min, Point::new(0.0, 5.0));
        assert_eq!(r.max, Point::new(10.0, 20.0));
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 15.0);
        assert_eq!(r.area(), 150.0);
    }

    #[test]
    fn overlap_and_containment() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 15.0, 15.0);
        let c = Rect::new(10.0, 0.0, 20.0, 10.0); // touches a
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching edges are not overlap");
        assert!(a.contains_point(&Point::new(10.0, 10.0)));
        assert!(a.contains_rect(&Rect::new(1.0, 1.0, 9.0, 9.0)));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn union_and_spacing() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(20.0, 0.0, 30.0, 10.0);
        assert_eq!(a.union(&b), Rect::new(0.0, 0.0, 30.0, 10.0));
        assert_eq!(a.spacing_to(&b), 10.0);
        assert_eq!(a.spacing_to(&a), 0.0);
        // Diagonal spacing uses Euclidean distance between corners.
        let c = Rect::new(13.0, 14.0, 20.0, 20.0);
        assert!((a.spacing_to(&c) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn translation_and_expansion() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        assert_eq!(r.translated(1.0, 2.0), Rect::new(1.0, 2.0, 5.0, 6.0));
        assert_eq!(r.expanded(1.0), Rect::new(-1.0, -1.0, 5.0, 5.0));
        assert_eq!(r.center(), Point::new(2.0, 2.0));
    }

    #[test]
    fn hpwl_matches_bounding_box() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(4.0, 20.0),
        ];
        assert_eq!(half_perimeter_wire_length(&points), 10.0 + 20.0);
        assert_eq!(half_perimeter_wire_length(&[Point::new(1.0, 1.0)]), 0.0);
        assert_eq!(half_perimeter_wire_length(&[]), 0.0);
    }
}
