//! Grid road network with signalized intersections.
//!
//! Stand-in for the Boston network that VASP/Veins uses: a Manhattan-style
//! grid whose edges carry speed limits and whose intersections carry
//! two-phase traffic signals. The point is not geographic fidelity but
//! producing benign kinematics with the same structure — cruising,
//! queueing at reds, and quarter-turns with coherent heading/yaw-rate.

use rand::rngs::StdRng;
use rand::Rng;

/// A compass direction of travel along the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// +X travel (heading 0).
    East,
    /// +Y travel (heading π/2).
    North,
    /// −X travel (heading π).
    West,
    /// −Y travel (heading −π/2).
    South,
}

impl Direction {
    /// Heading angle in radians (CCW from +X).
    pub(crate) fn heading(self) -> f64 {
        use std::f64::consts::FRAC_PI_2;
        match self {
            Direction::East => 0.0,
            Direction::North => FRAC_PI_2,
            Direction::West => std::f64::consts::PI,
            Direction::South => -FRAC_PI_2,
        }
    }

    /// Unit vector of travel.
    pub(crate) fn unit(self) -> (f64, f64) {
        match self {
            Direction::East => (1.0, 0.0),
            Direction::North => (0.0, 1.0),
            Direction::West => (-1.0, 0.0),
            Direction::South => (0.0, -1.0),
        }
    }

    /// Direction after a left (CCW) turn.
    pub(crate) fn left(self) -> Direction {
        match self {
            Direction::East => Direction::North,
            Direction::North => Direction::West,
            Direction::West => Direction::South,
            Direction::South => Direction::East,
        }
    }

    /// Direction after a right (CW) turn.
    pub(crate) fn right(self) -> Direction {
        match self {
            Direction::East => Direction::South,
            Direction::South => Direction::West,
            Direction::West => Direction::North,
            Direction::North => Direction::East,
        }
    }

    /// Whether travel is along the X axis.
    pub(crate) fn is_east_west(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }
}

/// Grid coordinates of an intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NodeId {
    /// Column index.
    pub ix: i32,
    /// Row index.
    pub iy: i32,
}

/// A two-phase fixed-time traffic signal at an intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Signal {
    /// Full cycle length in seconds.
    pub cycle_s: f64,
    /// Phase offset in seconds.
    pub offset_s: f64,
    /// Fraction of the cycle that is green for east–west traffic.
    pub ew_green_fraction: f64,
}

impl Signal {
    /// Whether the approach from `dir` sees green at time `t`.
    pub(crate) fn is_green(&self, dir: Direction, t: f64) -> bool {
        let phase = ((t + self.offset_s) % self.cycle_s + self.cycle_s) % self.cycle_s;
        let ew_green = phase < self.ew_green_fraction * self.cycle_s;
        if dir.is_east_west() {
            ew_green
        } else {
            !ew_green
        }
    }
}

/// The grid road network.
///
/// Intersections sit at `(ix · spacing, iy · spacing)` for
/// `0 ≤ ix < nx`, `0 ≤ iy < ny`. Every grid line is a bidirectional road.
#[derive(Debug, Clone)]
pub(crate) struct RoadNetwork {
    /// Number of columns of intersections.
    pub nx: i32,
    /// Number of rows of intersections.
    pub ny: i32,
    /// Block length in meters.
    pub spacing: f64,
    signals: Vec<Signal>,
}

impl RoadNetwork {
    /// Builds a grid with randomized signal offsets.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 2×2 or spacing is non-positive.
    pub(crate) fn grid(nx: i32, ny: i32, spacing: f64, rng: &mut StdRng) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid must be at least 2×2");
        assert!(spacing > 0.0, "spacing must be positive");
        let signals = (0..nx * ny)
            .map(|_| Signal {
                cycle_s: rng.gen_range(40.0..80.0),
                offset_s: rng.gen_range(0.0..60.0),
                ew_green_fraction: rng.gen_range(0.4..0.6),
            })
            .collect();
        RoadNetwork {
            nx,
            ny,
            spacing,
            signals,
        }
    }

    /// World position of an intersection.
    pub(crate) fn node_position(&self, node: NodeId) -> (f64, f64) {
        (node.ix as f64 * self.spacing, node.iy as f64 * self.spacing)
    }

    /// Whether a node is inside the grid.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        node.ix >= 0 && node.ix < self.nx && node.iy >= 0 && node.iy < self.ny
    }

    /// The neighboring node reached by traveling `dir` from `node`, if any.
    pub(crate) fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (dx, dy) = dir.unit();
        let next = NodeId {
            ix: node.ix + dx as i32,
            iy: node.iy + dy as i32,
        };
        self.contains(next).then_some(next)
    }

    /// The signal at a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the grid.
    pub(crate) fn signal(&self, node: NodeId) -> &Signal {
        assert!(self.contains(node), "node {node:?} outside grid");
        &self.signals[(node.iy * self.nx + node.ix) as usize]
    }

    /// A uniformly random interior node.
    pub(crate) fn random_node(&self, rng: &mut StdRng) -> NodeId {
        NodeId {
            ix: rng.gen_range(0..self.nx),
            iy: rng.gen_range(0..self.ny),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn direction_turns_compose() {
        for d in [
            Direction::East,
            Direction::North,
            Direction::West,
            Direction::South,
        ] {
            assert_eq!(d.left().right(), d);
            assert_eq!(d.left().left().left().left(), d);
            assert_eq!(d.right().right(), d.left().left());
        }
    }

    #[test]
    fn heading_matches_unit_vector() {
        for d in [
            Direction::East,
            Direction::North,
            Direction::West,
            Direction::South,
        ] {
            let (ux, uy) = d.unit();
            assert!((d.heading().cos() - ux).abs() < 1e-12);
            assert!((d.heading().sin() - uy).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_geometry() {
        let net = RoadNetwork::grid(4, 3, 200.0, &mut rng());
        assert_eq!(net.node_position(NodeId { ix: 2, iy: 1 }), (400.0, 200.0));
        assert!(net.contains(NodeId { ix: 0, iy: 0 }));
        assert!(!net.contains(NodeId { ix: 4, iy: 0 }));
        assert!(!net.contains(NodeId { ix: -1, iy: 0 }));
    }

    #[test]
    fn neighbors_respect_bounds() {
        let net = RoadNetwork::grid(3, 3, 100.0, &mut rng());
        let corner = NodeId { ix: 0, iy: 0 };
        assert!(net.neighbor(corner, Direction::West).is_none());
        assert!(net.neighbor(corner, Direction::South).is_none());
        assert_eq!(
            net.neighbor(corner, Direction::East),
            Some(NodeId { ix: 1, iy: 0 })
        );
    }

    #[test]
    fn signal_phases_are_complementary() {
        let sig = Signal {
            cycle_s: 60.0,
            offset_s: 0.0,
            ew_green_fraction: 0.5,
        };
        for t in [0.0, 10.0, 29.9, 30.1, 55.0, 61.0] {
            assert_ne!(
                sig.is_green(Direction::East, t),
                sig.is_green(Direction::North, t),
                "t={t}"
            );
        }
    }

    #[test]
    fn signals_are_deterministic_per_seed() {
        let a = RoadNetwork::grid(3, 3, 100.0, &mut rng());
        let b = RoadNetwork::grid(3, 3, 100.0, &mut rng());
        let n = NodeId { ix: 1, iy: 1 };
        assert_eq!(a.signal(n), b.signal(n));
    }
}
