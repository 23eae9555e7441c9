//! Mesh topology and XY routing.

use rce_common::{impl_json_newtype, CoreId, LineAddr};

/// A tile index in the mesh (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl_json_newtype!(to_json NodeId);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A `width × height` mesh of tiles, sized to hold one tile per core
/// (near-square, width ≥ height).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
    mem_ctrls: Vec<NodeId>,
}

impl Mesh {
    /// Build the smallest near-square mesh with at least `tiles` tiles.
    /// Memory controllers are placed on up to four corner tiles.
    pub(crate) fn for_tiles(tiles: usize) -> Self {
        assert!(tiles >= 1);
        let width = (tiles as f64).sqrt().ceil() as usize;
        let height = tiles.div_ceil(width);
        let mut mem_ctrls = vec![
            NodeId(0),
            NodeId(width - 1),
            NodeId((height - 1) * width),
            NodeId(height * width - 1),
        ];
        mem_ctrls.sort();
        mem_ctrls.dedup();
        Mesh {
            width,
            height,
            mem_ctrls,
        }
    }

    /// Mesh width (columns).
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Total tiles.
    pub(crate) fn tiles(&self) -> usize {
        self.width * self.height
    }

    /// `(x, y)` coordinates of a tile.
    pub(crate) fn coords(&self, n: NodeId) -> (usize, usize) {
        debug_assert!(n.0 < self.tiles());
        (n.0 % self.width, n.0 / self.width)
    }

    /// The tile hosting a core (identity mapping).
    pub(crate) fn core_node(&self, c: CoreId) -> NodeId {
        debug_assert!(c.index() < self.tiles());
        NodeId(c.index())
    }

    /// The tile hosting the LLC bank for `line` (address-interleaved
    /// across all tiles).
    pub(crate) fn bank_node(&self, line: LineAddr, banks: usize) -> NodeId {
        // Mix the line address so striding patterns spread across banks.
        let h = line.0.wrapping_mul(0x9e3779b97f4a7c15) >> 32;
        NodeId((h % banks as u64) as usize)
    }

    /// The memory-controller tile serving `line` (interleaved).
    pub(crate) fn mem_node(&self, line: LineAddr) -> NodeId {
        let h = line.0.wrapping_mul(0xd1b54a32d192ed03) >> 32;
        self.mem_ctrls[(h % self.mem_ctrls.len() as u64) as usize]
    }

    /// Manhattan hop count between two tiles.
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// The directed links of the XY route from `a` to `b`, as link
    /// indices (see [`Mesh::link_count`]). X first, then Y; yields
    /// [`Mesh::hops`] links without allocating.
    pub(crate) fn route(&self, a: NodeId, b: NodeId) -> impl Iterator<Item = usize> {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let w = self.width as isize;
        // One straight leg: `n` links leaving `tile`, `tile + step`, …
        // in direction `dir`.
        let leg = |tile: usize, step: isize, dir: usize, n: usize| {
            (0..n as isize).map(move |i| (tile as isize + i * step) as usize * 4 + dir)
        };
        let x_leg = if bx >= ax {
            leg(a.0, 1, 0, bx - ax) // east
        } else {
            leg(a.0, -1, 1, ax - bx) // west
        };
        let turn = ay * self.width + bx;
        let y_leg = if by >= ay {
            leg(turn, w, 2, by - ay) // south
        } else {
            leg(turn, -w, 3, ay - by) // north
        };
        x_leg.chain(y_leg)
    }

    /// Number of directed links (4 per tile, counting only existing
    /// neighbors; we allocate the dense upper bound `tiles * 4` and
    /// index by (tile, direction)).
    pub(crate) fn link_count(&self) -> usize {
        self.tiles() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_dimensions() {
        let m = Mesh::for_tiles(16);
        assert_eq!((m.width(), m.tiles()), (4, 16));
        let m = Mesh::for_tiles(8);
        assert!(m.tiles() >= 8);
        let m = Mesh::for_tiles(1);
        assert_eq!(m.tiles(), 1);
        assert_eq!(m.mem_ctrls.len(), 1);
    }

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::for_tiles(16);
        assert_eq!(m.coords(NodeId(0)), (0, 0));
        assert_eq!(m.coords(NodeId(5)), (1, 1));
        assert_eq!(m.coords(NodeId(15)), (3, 3));
    }

    #[test]
    fn hops_are_manhattan() {
        let m = Mesh::for_tiles(16);
        assert_eq!(m.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(m.hops(NodeId(5), NodeId(10)), 2);
    }

    /// Dense index of the directed link from `from` to the adjacent
    /// tile `to`.
    fn link_index(m: &Mesh, from: (usize, usize), to: (usize, usize)) -> usize {
        let tile = from.1 * m.width() + from.0;
        let dir = if to.0 == from.0 + 1 {
            0 // east
        } else if from.0 == to.0 + 1 {
            1 // west
        } else if to.1 == from.1 + 1 {
            2 // south
        } else {
            3 // north
        };
        tile * 4 + dir
    }

    /// The step-by-step `Vec` XY route the iterator replaced.
    fn route_vec(m: &Mesh, a: NodeId, b: NodeId) -> Vec<usize> {
        let (ax, ay) = m.coords(a);
        let (bx, by) = m.coords(b);
        let mut links = Vec::new();
        let (mut x, mut y) = (ax, ay);
        while x != bx {
            let nx = if bx > x { x + 1 } else { x - 1 };
            links.push(link_index(m, (x, y), (nx, y)));
            x = nx;
        }
        while y != by {
            let ny = if by > y { y + 1 } else { y - 1 };
            links.push(link_index(m, (x, y), (x, ny)));
            y = ny;
        }
        links
    }

    #[test]
    fn route_matches_stepwise_reference_on_every_mesh() {
        for tiles in 1..=64 {
            let m = Mesh::for_tiles(tiles);
            for a in 0..m.tiles() {
                for b in 0..m.tiles() {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let r: Vec<usize> = m.route(a, b).collect();
                    assert_eq!(r, route_vec(&m, a, b), "{tiles} tiles, {a} -> {b}");
                    assert_eq!(r.len(), m.hops(a, b));
                    assert!(r.iter().all(|&l| l < m.link_count()));
                }
            }
        }
    }

    #[test]
    fn route_links_are_distinct() {
        let m = Mesh::for_tiles(16);
        let r: Vec<usize> = m.route(NodeId(0), NodeId(15)).collect();
        let set: std::collections::HashSet<_> = r.iter().collect();
        assert_eq!(set.len(), r.len());
    }

    #[test]
    fn four_mem_ctrls_on_corners() {
        let m = Mesh::for_tiles(16);
        assert_eq!(m.mem_ctrls, [NodeId(0), NodeId(3), NodeId(12), NodeId(15)]);
    }

    #[test]
    fn bank_interleaving_covers_banks() {
        let m = Mesh::for_tiles(16);
        let mut seen = std::collections::HashSet::new();
        for l in 0..4096u64 {
            seen.insert(m.bank_node(LineAddr(l), 16));
        }
        assert_eq!(seen.len(), 16, "all banks should receive lines");
    }

    #[test]
    fn mem_interleaving_uses_all_ctrls() {
        let m = Mesh::for_tiles(16);
        let mut seen = std::collections::HashSet::new();
        for l in 0..4096u64 {
            seen.insert(m.mem_node(LineAddr(l)));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn core_nodes_are_identity() {
        let m = Mesh::for_tiles(8);
        assert_eq!(m.core_node(CoreId(3)), NodeId(3));
    }
}
