//! Route geometry: straight blocks joined by quarter-circle turn arcs.
//!
//! A route is a parametric curve indexed by arc length. Poses derived from
//! it are *exactly* kinematically consistent: heading is the curve tangent,
//! yaw rate is `curvature × speed`, so the physics relations of Table II
//! hold for benign traffic by construction (up to sensor noise).

use crate::network::{Direction, NodeId, RoadNetwork};
use rand::rngs::StdRng;
use rand::Rng;
use std::f64::consts::FRAC_PI_2;

/// A pose sampled from a route at some arc length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pose {
    /// East coordinate (m).
    pub x: f64,
    /// North coordinate (m).
    pub y: f64,
    /// Tangent heading (rad, CCW from +X).
    pub heading: f64,
    /// Signed curvature (1/m); positive turns left.
    pub curvature: f64,
}

/// One geometric piece of a route.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Segment {
    /// A straight stretch starting at `(x0, y0)` with fixed `heading`.
    Straight {
        /// Start X (m).
        x0: f64,
        /// Start Y (m).
        y0: f64,
        /// Constant heading (rad).
        heading: f64,
        /// Length (m).
        length: f64,
    },
    /// A circular arc around `(cx, cy)`.
    Arc {
        /// Circle center X (m).
        cx: f64,
        /// Circle center Y (m).
        cy: f64,
        /// Turn radius (m).
        radius: f64,
        /// Angle from center to the arc start point (rad).
        phi0: f64,
        /// +1 for a left (CCW) turn, −1 for a right (CW) turn.
        sign: f64,
        /// Arc length (m).
        length: f64,
    },
}

impl Segment {
    /// Length of the segment in meters.
    pub(crate) fn length(&self) -> f64 {
        match *self {
            Segment::Straight { length, .. } | Segment::Arc { length, .. } => length,
        }
    }

    /// Pose at arc length `s` from the segment start.
    pub(crate) fn pose(&self, s: f64) -> Pose {
        match *self {
            Segment::Straight {
                x0, y0, heading, ..
            } => Pose {
                x: x0 + s * heading.cos(),
                y: y0 + s * heading.sin(),
                heading,
                curvature: 0.0,
            },
            Segment::Arc {
                cx,
                cy,
                radius,
                phi0,
                sign,
                ..
            } => {
                let phi = phi0 + sign * s / radius;
                Pose {
                    x: cx + radius * phi.cos(),
                    y: cy + radius * phi.sin(),
                    heading: phi + sign * FRAC_PI_2,
                    curvature: sign / radius,
                }
            }
        }
    }
}

/// A stop line on a route (signalized intersection approach).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StopLine {
    /// Route arc length of the stop line.
    pub position: f64,
    /// The signalized node being approached.
    pub node: NodeId,
    /// Direction of approach (determines the signal phase that applies).
    pub approach: Direction,
}

/// A full route: segments plus cumulative lengths and stop lines.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Route {
    segments: Vec<Segment>,
    cumulative: Vec<f64>,
    stop_lines: Vec<StopLine>,
}

impl Route {
    /// Builds a route from explicit segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or any segment has non-positive length.
    pub(crate) fn from_segments(segments: Vec<Segment>, stop_lines: Vec<StopLine>) -> Self {
        assert!(!segments.is_empty(), "route needs at least one segment");
        let mut cumulative = Vec::with_capacity(segments.len() + 1);
        let mut acc = 0.0;
        cumulative.push(0.0);
        for seg in &segments {
            assert!(seg.length() > 0.0, "segment length must be positive");
            acc += seg.length();
            cumulative.push(acc);
        }
        Route {
            segments,
            cumulative,
            stop_lines,
        }
    }

    /// Total route length in meters.
    pub(crate) fn total_length(&self) -> f64 {
        *self.cumulative.last().expect("nonempty")
    }

    /// Pose at arc length `s` (clamped to the route extent).
    pub(crate) fn pose(&self, s: f64) -> Pose {
        let s = s.clamp(0.0, self.total_length());
        // Binary search for the containing segment.
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite"))
        {
            Ok(i) => i.min(self.segments.len() - 1),
            Err(i) => i - 1,
        };
        let idx = idx.min(self.segments.len() - 1);
        self.segments[idx].pose(s - self.cumulative[idx])
    }

    /// Signed curvature at arc length `s`.
    pub(crate) fn curvature(&self, s: f64) -> f64 {
        self.pose(s).curvature
    }

    /// The next curve (arc) start at or after `s`, with its radius.
    pub(crate) fn next_curve(&self, s: f64) -> Option<(f64, f64)> {
        for (i, seg) in self.segments.iter().enumerate() {
            if let Segment::Arc { radius, .. } = seg {
                let start = self.cumulative[i];
                let end = start + seg.length();
                if end > s {
                    return Some((start.max(s), *radius));
                }
            }
        }
        None
    }

    /// The next stop line at or after `s`.
    pub(crate) fn next_stop_line(&self, s: f64) -> Option<&StopLine> {
        self.stop_lines.iter().find(|sl| sl.position >= s)
    }

    /// Generates a random route through `net` of at least `min_length`
    /// meters (or until the walk hits a dead end).
    ///
    /// The walk starts at a random node, travels block to block, and at
    /// each intersection goes straight with probability ~0.6, otherwise
    /// turns (only options that stay inside the grid are considered).
    /// Turns are quarter-circle arcs of radius `turn_radius`.
    ///
    /// # Panics
    ///
    /// Panics if `turn_radius` does not fit in a block
    /// (`2·turn_radius ≥ spacing`).
    pub(crate) fn random(
        net: &RoadNetwork,
        min_length: f64,
        turn_radius: f64,
        rng: &mut StdRng,
    ) -> Route {
        assert!(
            2.0 * turn_radius < net.spacing,
            "turn radius {turn_radius} too large for block spacing {}",
            net.spacing
        );
        // Random start with at least one outgoing edge.
        let dirs = [
            Direction::East,
            Direction::North,
            Direction::West,
            Direction::South,
        ];
        let (start, d0) = loop {
            let n = net.random_node(rng);
            let d = dirs[rng.gen_range(0..4)];
            if net.neighbor(n, d).is_some() {
                break (n, d);
            }
        };

        // Plan the node walk first: (node, outgoing direction) pairs.
        let mut walk: Vec<(NodeId, Direction)> = vec![(start, d0)];
        let mut length_estimate = 0.0;
        let mut node = start;
        let mut dir = d0;
        while length_estimate < min_length + net.spacing {
            let next = match net.neighbor(node, dir) {
                Some(n) => n,
                None => break,
            };
            // Choose the outgoing direction from `next`.
            let mut options: Vec<Direction> = Vec::with_capacity(3);
            for cand in [dir, dir.left(), dir.right()] {
                if net.neighbor(next, cand).is_some() {
                    options.push(cand);
                }
            }
            let out = if options.is_empty() {
                // Dead end: terminate the walk at `next`.
                walk.push((next, dir));
                break;
            } else if options.contains(&dir) && rng.gen_bool(0.6) {
                dir
            } else {
                options[rng.gen_range(0..options.len())]
            };
            walk.push((next, out));
            length_estimate += net.spacing;
            node = next;
            dir = out;
        }

        // Convert the walk to geometry.
        let stop_gap = 3.0; // stop line sits 3 m before the intersection
        let mut segments = Vec::new();
        let mut stop_lines = Vec::new();
        let (mut cx, mut cy) = net.node_position(walk[0].0);
        let mut cum = 0.0;
        for i in 1..walk.len() {
            let (node_i, out_dir) = walk[i];
            let in_dir = walk[i - 1].1;
            let (nx_pos, ny_pos) = net.node_position(node_i);
            let dist_to_node = ((nx_pos - cx).powi(2) + (ny_pos - cy).powi(2)).sqrt();
            let is_last = i == walk.len() - 1;
            let turning = !is_last && out_dir != in_dir;
            let exit_trim = if turning { turn_radius } else { 0.0 };
            let straight_len = dist_to_node - exit_trim;
            if straight_len > 1e-9 {
                segments.push(Segment::Straight {
                    x0: cx,
                    y0: cy,
                    heading: in_dir.heading(),
                    length: straight_len,
                });
                cum += straight_len;
                let (ux, uy) = in_dir.unit();
                cx += ux * straight_len;
                cy += uy * straight_len;
            }
            if !is_last {
                stop_lines.push(StopLine {
                    position: (cum - stop_gap).max(0.0),
                    node: node_i,
                    approach: in_dir,
                });
            }
            if turning {
                let h0 = in_dir.heading();
                let sign = if out_dir == in_dir.left() { 1.0 } else { -1.0 };
                // Center is perpendicular to the current heading.
                let center_angle = h0 + sign * FRAC_PI_2;
                let arc_cx = cx + turn_radius * center_angle.cos();
                let arc_cy = cy + turn_radius * center_angle.sin();
                let phi0 = center_angle + std::f64::consts::PI; // from center back to start
                let length = turn_radius * FRAC_PI_2;
                segments.push(Segment::Arc {
                    cx: arc_cx,
                    cy: arc_cy,
                    radius: turn_radius,
                    phi0,
                    sign,
                    length,
                });
                cum += length;
                // Arc ends turn_radius past the node along the new direction.
                let (ux, uy) = out_dir.unit();
                cx = nx_pos + ux * turn_radius;
                cy = ny_pos + uy * turn_radius;
            }
        }
        assert!(!segments.is_empty(), "walk produced no geometry");
        Route::from_segments(segments, stop_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn test_net(seed: u64) -> RoadNetwork {
        RoadNetwork::grid(6, 6, 200.0, &mut rng(seed))
    }

    #[test]
    fn straight_pose() {
        let seg = Segment::Straight {
            x0: 1.0,
            y0: 2.0,
            heading: 0.0,
            length: 10.0,
        };
        let p = seg.pose(4.0);
        assert_eq!((p.x, p.y), (5.0, 2.0));
        assert_eq!(p.curvature, 0.0);
    }

    #[test]
    fn arc_pose_left_turn_quarter() {
        // Start at origin heading east; left turn radius 10 → ends at
        // (10, 10) heading north.
        let seg = Segment::Arc {
            cx: 0.0,
            cy: 10.0,
            radius: 10.0,
            phi0: -FRAC_PI_2,
            sign: 1.0,
            length: 10.0 * FRAC_PI_2,
        };
        let start = seg.pose(0.0);
        assert!((start.x).abs() < 1e-9 && (start.y).abs() < 1e-9);
        assert!((start.heading).abs() < 1e-9);
        let end = seg.pose(seg.length());
        assert!((end.x - 10.0).abs() < 1e-9, "x={}", end.x);
        assert!((end.y - 10.0).abs() < 1e-9, "y={}", end.y);
        assert!((end.heading - FRAC_PI_2).abs() < 1e-9);
        assert!((start.curvature - 0.1).abs() < 1e-12);
    }

    #[test]
    fn route_pose_is_continuous() {
        let net = test_net(3);
        let route = Route::random(&net, 1500.0, 12.0, &mut rng(7));
        let mut prev = route.pose(0.0);
        let step = 0.5;
        let mut s = step;
        while s < route.total_length() {
            let p = route.pose(s);
            let jump = ((p.x - prev.x).powi(2) + (p.y - prev.y).powi(2)).sqrt();
            assert!(jump < 2.0 * step, "discontinuity at s={s}: jump={jump}");
            prev = p;
            s += step;
        }
    }

    #[test]
    fn route_heading_is_tangent() {
        // dPos/ds must equal (cos h, sin h) everywhere.
        let net = test_net(5);
        let route = Route::random(&net, 2000.0, 12.0, &mut rng(9));
        let eps = 0.01;
        let mut s = eps;
        while s < route.total_length() - eps {
            let p = route.pose(s);
            let ahead = route.pose(s + eps);
            let behind = route.pose(s - eps);
            let dx = (ahead.x - behind.x) / (2.0 * eps);
            let dy = (ahead.y - behind.y) / (2.0 * eps);
            assert!((dx - p.heading.cos()).abs() < 1e-2, "s={s}");
            assert!((dy - p.heading.sin()).abs() < 1e-2, "s={s}");
            s += 7.3;
        }
    }

    #[test]
    fn curvature_matches_heading_derivative() {
        let net = test_net(6);
        let route = Route::random(&net, 2000.0, 12.0, &mut rng(10));
        let eps = 0.01;
        let mut s = eps;
        while s < route.total_length() - eps {
            let k = route.curvature(s);
            let h1 = route.pose(s - eps).heading;
            let h2 = route.pose(s + eps).heading;
            let mut dh = h2 - h1;
            while dh > std::f64::consts::PI {
                dh -= 2.0 * std::f64::consts::PI;
            }
            while dh < -std::f64::consts::PI {
                dh += 2.0 * std::f64::consts::PI;
            }
            let k_num = dh / (2.0 * eps);
            // Skip segment boundaries where curvature is discontinuous.
            if (k_num - k).abs() > 0.02 {
                let near_boundary = route
                    .segments
                    .iter()
                    .scan(0.0, |acc, seg| {
                        *acc += seg.length();
                        Some(*acc)
                    })
                    .any(|b| (b - s).abs() < 0.1);
                assert!(near_boundary, "curvature mismatch at s={s}: {k_num} vs {k}");
            }
            s += 3.1;
        }
    }

    #[test]
    fn route_meets_min_length_or_dead_ends() {
        let net = test_net(2);
        for seed in 0..20 {
            let route = Route::random(&net, 1000.0, 12.0, &mut rng(seed));
            // Either long enough, or the walk ended at a boundary, which is
            // allowed — but it must always produce usable geometry.
            assert!(route.total_length() > net.spacing / 2.0);
        }
    }

    #[test]
    fn stop_lines_are_sorted_and_in_range() {
        let net = test_net(4);
        let route = Route::random(&net, 2000.0, 12.0, &mut rng(11));
        let stops = &route.stop_lines;
        for w in stops.windows(2) {
            assert!(w[0].position <= w[1].position);
        }
        for sl in stops {
            assert!(sl.position >= 0.0 && sl.position <= route.total_length());
        }
    }

    #[test]
    fn next_curve_finds_upcoming_arcs() {
        let net = test_net(8);
        // Generate until a route with a turn appears.
        let mut found = false;
        for seed in 0..50 {
            let route = Route::random(&net, 2000.0, 12.0, &mut rng(seed));
            if let Some((s_start, r)) = route.next_curve(0.0) {
                assert!(r == 12.0);
                assert!(s_start >= 0.0);
                found = true;
                break;
            }
        }
        assert!(found, "no route with a turn in 50 seeds");
    }

    #[test]
    fn deterministic_per_seed() {
        let net = test_net(1);
        let a = Route::random(&net, 1000.0, 12.0, &mut rng(42));
        let b = Route::random(&net, 1000.0, 12.0, &mut rng(42));
        assert_eq!(a, b);
    }
}
