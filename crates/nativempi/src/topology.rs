//! Virtual topologies (MPI-1.1 §6): cartesian grids and general graphs.
//!
//! A topology is attached to a communicator created by `cart_create` /
//! `graph_create`; the query functions (`cart_coords`, `cart_shift`,
//! `graph_neighbors`, ...) then read it back. `dims_create` is the usual
//! balanced factorisation helper.

use crate::comm::{CommHandle, CommRecord};
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::types::{PROC_NULL, UNDEFINED};
use crate::Engine;

/// Topology information attached to a communicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Cartesian grid: per-dimension extents and periodicity.
    Cart {
        dims: Vec<usize>,
        periods: Vec<bool>,
    },
    /// General graph: `index` is the cumulative neighbour count per node,
    /// `edges` the flattened adjacency lists (the MPI-1 representation).
    Graph {
        index: Vec<usize>,
        edges: Vec<usize>,
    },
}

/// `MPI_Dims_create`: factor `nnodes` into `ndims` balanced factors.
/// Entries of `dims` that are non-zero on input are kept fixed.
pub fn dims_create(nnodes: usize, dims: &mut [usize]) -> Result<()> {
    if nnodes == 0 {
        return err(ErrorClass::Arg, "dims_create: nnodes must be positive");
    }
    let fixed_product: usize = dims.iter().filter(|&&d| d > 0).product::<usize>().max(1);
    if !nnodes.is_multiple_of(fixed_product) {
        return err(
            ErrorClass::Arg,
            format!("dims_create: {nnodes} nodes cannot be divided by fixed dims (product {fixed_product})"),
        );
    }
    let remaining = nnodes / fixed_product;
    let free: Vec<usize> = dims
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    if free.is_empty() {
        if remaining != 1 {
            return err(
                ErrorClass::Arg,
                "dims_create: all dimensions fixed but product does not equal nnodes",
            );
        }
        return Ok(());
    }
    // Greedy balanced factorisation: repeatedly peel the largest prime
    // factor and assign it to the currently smallest dimension.
    let mut values = vec![1usize; free.len()];
    let mut factors = prime_factors(remaining);
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let idx = values
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .expect("values non-empty");
        values[idx] *= f;
    }
    values.sort_unstable_by(|a, b| b.cmp(a));
    for (slot, value) in free.iter().zip(values) {
        dims[*slot] = value;
    }
    Ok(())
}

fn prime_factors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n.is_multiple_of(d) {
            out.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

impl Engine {
    /// `MPI_Cart_create`. Collective over `comm`. Ranks beyond the grid
    /// size get `None`. `reorder` is accepted but ignored (ranks keep their
    /// order), which the standard allows.
    pub fn cart_create(
        &mut self,
        comm: CommHandle,
        dims: &[usize],
        periods: &[bool],
        _reorder: bool,
    ) -> Result<Option<CommHandle>> {
        if dims.is_empty() || dims.len() != periods.len() {
            return err(
                ErrorClass::Topology,
                "cart_create: dims and periods must be non-empty and equal length",
            );
        }
        let grid_size: usize = dims.iter().product();
        let comm_size = self.comm_size(comm)?;
        if grid_size == 0 || grid_size > comm_size {
            return err(
                ErrorClass::Topology,
                format!("cart_create: grid of {grid_size} processes does not fit communicator of {comm_size}"),
            );
        }
        let my_rank = self.comm_rank(comm)?;
        let color = if my_rank < grid_size { 0 } else { UNDEFINED };
        let new = self.comm_split(comm, color, my_rank as i32)?;
        match new {
            None => Ok(None),
            Some(handle) => {
                let record: &mut CommRecord = self.comm_mut(handle)?;
                record.topology = Some(Topology::Cart {
                    dims: dims.to_vec(),
                    periods: periods.to_vec(),
                });
                Ok(Some(handle))
            }
        }
    }

    fn cart_info(&self, comm: CommHandle) -> Result<(Vec<usize>, Vec<bool>)> {
        match &self.comm(comm)?.topology {
            Some(Topology::Cart { dims, periods }) => Ok((dims.clone(), periods.clone())),
            _ => err(
                ErrorClass::Topology,
                "communicator has no cartesian topology",
            ),
        }
    }

    /// `MPI_Cartdim_get`.
    pub fn cartdim_get(&self, comm: CommHandle) -> Result<usize> {
        Ok(self.cart_info(comm)?.0.len())
    }

    /// `MPI_Cart_get`: dims, periods and this process's coordinates.
    pub fn cart_get(&self, comm: CommHandle) -> Result<(Vec<usize>, Vec<bool>, Vec<usize>)> {
        let (dims, periods) = self.cart_info(comm)?;
        let coords = self.cart_coords(comm, self.comm_rank(comm)?)?;
        Ok((dims, periods, coords))
    }

    /// `MPI_Cart_rank`: coordinates to rank (row-major, as MPI specifies).
    /// Periodic dimensions wrap; non-periodic out-of-range coordinates are
    /// an error.
    pub fn cart_rank(&self, comm: CommHandle, coords: &[i64]) -> Result<usize> {
        let (dims, periods) = self.cart_info(comm)?;
        if coords.len() != dims.len() {
            return err(
                ErrorClass::Topology,
                "cart_rank: wrong number of coordinates",
            );
        }
        let mut rank = 0usize;
        for ((&c, &d), &p) in coords.iter().zip(&dims).zip(&periods) {
            let c = if p {
                c.rem_euclid(d as i64) as usize
            } else {
                if c < 0 || c >= d as i64 {
                    return err(
                        ErrorClass::Topology,
                        format!("cart_rank: coordinate {c} outside non-periodic dimension of extent {d}"),
                    );
                }
                c as usize
            };
            rank = rank * d + c;
        }
        Ok(rank)
    }

    /// `MPI_Cart_coords`: rank to coordinates.
    pub fn cart_coords(&self, comm: CommHandle, rank: usize) -> Result<Vec<usize>> {
        let (dims, _) = self.cart_info(comm)?;
        let size: usize = dims.iter().product();
        if rank >= size {
            return err(
                ErrorClass::Rank,
                format!("cart_coords: rank {rank} outside grid"),
            );
        }
        let mut coords = vec![0usize; dims.len()];
        let mut rem = rank;
        for i in (0..dims.len()).rev() {
            coords[i] = rem % dims[i];
            rem /= dims[i];
        }
        Ok(coords)
    }

    /// `MPI_Cart_shift`: source and destination ranks for a shift of
    /// `disp` along `dimension`. Returns `(source, dest)` as ranks, or
    /// [`PROC_NULL`] where the shift falls off a non-periodic edge.
    pub fn cart_shift(&self, comm: CommHandle, dimension: usize, disp: i64) -> Result<(i32, i32)> {
        let (dims, periods) = self.cart_info(comm)?;
        if dimension >= dims.len() {
            return err(ErrorClass::Topology, "cart_shift: dimension out of range");
        }
        let my_coords = self.cart_coords(comm, self.comm_rank(comm)?)?;
        let project = |delta: i64| -> Result<i32> {
            let mut c: Vec<i64> = my_coords.iter().map(|&x| x as i64).collect();
            c[dimension] += delta;
            if !periods[dimension] && (c[dimension] < 0 || c[dimension] >= dims[dimension] as i64) {
                return Ok(PROC_NULL);
            }
            Ok(self.cart_rank(comm, &c)? as i32)
        };
        let dest = project(disp)?;
        let source = project(-disp)?;
        Ok((source, dest))
    }

    /// `MPI_Cart_sub`: keep only the dimensions flagged `true`, splitting
    /// the grid into independent sub-grids over the dropped dimensions.
    pub fn cart_sub(&mut self, comm: CommHandle, remain: &[bool]) -> Result<CommHandle> {
        let (dims, periods) = self.cart_info(comm)?;
        if remain.len() != dims.len() {
            return err(ErrorClass::Topology, "cart_sub: wrong number of flags");
        }
        let coords = self.cart_coords(comm, self.comm_rank(comm)?)?;
        // Color = linearised coordinates of the dropped dimensions;
        // key = linearised coordinates of the kept dimensions.
        let mut color = 0i32;
        let mut key = 0i32;
        for i in 0..dims.len() {
            if remain[i] {
                key = key * dims[i] as i32 + coords[i] as i32;
            } else {
                color = color * dims[i] as i32 + coords[i] as i32;
            }
        }
        let sub = self
            .comm_split(comm, color, key)?
            .expect("color is never UNDEFINED in cart_sub");
        let new_dims: Vec<usize> = dims
            .iter()
            .zip(remain)
            .filter(|(_, &keep)| keep)
            .map(|(&d, _)| d)
            .collect();
        let new_periods: Vec<bool> = periods
            .iter()
            .zip(remain)
            .filter(|(_, &keep)| keep)
            .map(|(&p, _)| p)
            .collect();
        let record = self.comm_mut(sub)?;
        record.topology = Some(Topology::Cart {
            dims: if new_dims.is_empty() {
                vec![1]
            } else {
                new_dims
            },
            periods: if new_periods.is_empty() {
                vec![false]
            } else {
                new_periods
            },
        });
        Ok(sub)
    }

    /// `MPI_Graph_create`. Collective. `index`/`edges` use the MPI-1
    /// encoding: `index[i]` is the total number of neighbours of nodes
    /// `0..=i`, `edges` the concatenated adjacency lists.
    pub fn graph_create(
        &mut self,
        comm: CommHandle,
        index: &[usize],
        edges: &[usize],
        _reorder: bool,
    ) -> Result<Option<CommHandle>> {
        let nnodes = index.len();
        let comm_size = self.comm_size(comm)?;
        if nnodes == 0 || nnodes > comm_size {
            return err(
                ErrorClass::Topology,
                format!("graph_create: {nnodes} nodes does not fit communicator of {comm_size}"),
            );
        }
        if let Some(&last) = index.last() {
            if last != edges.len() {
                return err(
                    ErrorClass::Topology,
                    "graph_create: index/edges arrays are inconsistent",
                );
            }
        }
        for w in index.windows(2) {
            if w[1] < w[0] {
                return err(
                    ErrorClass::Topology,
                    "graph_create: index must be non-decreasing",
                );
            }
        }
        if edges.iter().any(|&e| e >= nnodes) {
            return err(
                ErrorClass::Topology,
                "graph_create: edge endpoint out of range",
            );
        }
        let my_rank = self.comm_rank(comm)?;
        let color = if my_rank < nnodes { 0 } else { UNDEFINED };
        let new = self.comm_split(comm, color, my_rank as i32)?;
        match new {
            None => Ok(None),
            Some(handle) => {
                let record = self.comm_mut(handle)?;
                record.topology = Some(Topology::Graph {
                    index: index.to_vec(),
                    edges: edges.to_vec(),
                });
                Ok(Some(handle))
            }
        }
    }

    fn graph_info(&self, comm: CommHandle) -> Result<(Vec<usize>, Vec<usize>)> {
        match &self.comm(comm)?.topology {
            Some(Topology::Graph { index, edges }) => Ok((index.clone(), edges.clone())),
            _ => err(ErrorClass::Topology, "communicator has no graph topology"),
        }
    }

    /// `MPI_Graphdims_get`: (number of nodes, number of edges).
    pub fn graphdims_get(&self, comm: CommHandle) -> Result<(usize, usize)> {
        let (index, edges) = self.graph_info(comm)?;
        Ok((index.len(), edges.len()))
    }

    /// `MPI_Graph_get`.
    pub fn graph_get(&self, comm: CommHandle) -> Result<(Vec<usize>, Vec<usize>)> {
        self.graph_info(comm)
    }

    /// `MPI_Graph_neighbors_count`.
    pub fn graph_neighbors_count(&self, comm: CommHandle, rank: usize) -> Result<usize> {
        Ok(self.graph_neighbors(comm, rank)?.len())
    }

    /// `MPI_Graph_neighbors`.
    pub fn graph_neighbors(&self, comm: CommHandle, rank: usize) -> Result<Vec<usize>> {
        let (index, edges) = self.graph_info(comm)?;
        if rank >= index.len() {
            return err(ErrorClass::Rank, "graph_neighbors: rank outside graph");
        }
        let start = if rank == 0 { 0 } else { index[rank - 1] };
        let end = index[rank];
        if end > edges.len() || start > end {
            return Err(MpiError::new(ErrorClass::Intern, "corrupt graph topology"));
        }
        Ok(edges[start..end].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;

    #[test]
    fn dims_create_balances_factors() {
        let mut dims = vec![0, 0];
        dims_create(12, &mut dims).unwrap();
        assert_eq!(dims.iter().product::<usize>(), 12);
        assert!(dims.contains(&4) && dims.contains(&3));

        let mut dims = vec![0, 0, 0];
        dims_create(8, &mut dims).unwrap();
        assert_eq!(dims, vec![2, 2, 2]);

        let mut dims = vec![2, 0];
        dims_create(6, &mut dims).unwrap();
        assert_eq!(dims, vec![2, 3]);

        let mut dims = vec![5, 0];
        assert!(dims_create(8, &mut dims).is_err());
    }

    #[test]
    fn cart_create_rank_coordinate_roundtrip() {
        Universe::run(6, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[2, 3], &[false, true], false)
                .unwrap()
                .expect("6 ranks fit a 2x3 grid");
            assert_eq!(engine.cartdim_get(cart).unwrap(), 2);
            let rank = engine.comm_rank(cart).unwrap();
            let coords = engine.cart_coords(cart, rank).unwrap();
            assert_eq!(coords, vec![rank / 3, rank % 3]);
            let back = engine
                .cart_rank(cart, &coords.iter().map(|&c| c as i64).collect::<Vec<_>>())
                .unwrap();
            assert_eq!(back, rank);
            let (dims, periods, my_coords) = engine.cart_get(cart).unwrap();
            assert_eq!(dims, vec![2, 3]);
            assert_eq!(periods, vec![false, true]);
            assert_eq!(my_coords, coords);
        })
        .unwrap();
    }

    #[test]
    fn cart_shift_handles_periodic_and_edge() {
        Universe::run(6, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[2, 3], &[false, true], false)
                .unwrap()
                .unwrap();
            let rank = engine.comm_rank(cart).unwrap();
            let coords = engine.cart_coords(cart, rank).unwrap();
            // Dimension 0 is non-periodic: shifting off the edge gives PROC_NULL.
            let (src, dst) = engine.cart_shift(cart, 0, 1).unwrap();
            if coords[0] == 1 {
                assert_eq!(dst, PROC_NULL);
            } else {
                assert_eq!(dst as usize, rank + 3);
            }
            if coords[0] == 0 {
                assert_eq!(src, PROC_NULL);
            } else {
                assert_eq!(src as usize, rank - 3);
            }
            // Dimension 1 is periodic: always wraps.
            let (src1, dst1) = engine.cart_shift(cart, 1, 1).unwrap();
            assert_ne!(dst1, PROC_NULL);
            assert_ne!(src1, PROC_NULL);
        })
        .unwrap();
    }

    #[test]
    fn cart_sub_extracts_rows() {
        Universe::run(6, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[2, 3], &[false, false], false)
                .unwrap()
                .unwrap();
            // Keep dimension 1: each row of 3 becomes its own communicator.
            let rows = engine.cart_sub(cart, &[false, true]).unwrap();
            assert_eq!(engine.comm_size(rows).unwrap(), 3);
            let coords = engine
                .cart_coords(cart, engine.comm_rank(cart).unwrap())
                .unwrap();
            assert_eq!(engine.comm_rank(rows).unwrap(), coords[1]);
        })
        .unwrap();
    }

    #[test]
    fn extra_ranks_get_no_cart_comm() {
        Universe::run(5, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[2, 2], &[false, false], false)
                .unwrap();
            if engine.world_rank() < 4 {
                assert!(cart.is_some());
            } else {
                assert!(cart.is_none());
            }
        })
        .unwrap();
    }

    #[test]
    fn graph_topology_neighbors() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            // Ring of 4: 0-1-2-3-0
            let index = [2usize, 4, 6, 8];
            let edges = [1usize, 3, 0, 2, 1, 3, 2, 0];
            let graph = engine
                .graph_create(COMM_WORLD, &index, &edges, false)
                .unwrap()
                .unwrap();
            assert_eq!(engine.graphdims_get(graph).unwrap(), (4, 8));
            let rank = engine.comm_rank(graph).unwrap();
            let neighbors = engine.graph_neighbors(graph, rank).unwrap();
            assert_eq!(neighbors.len(), 2);
            assert_eq!(engine.graph_neighbors_count(graph, rank).unwrap(), 2);
            let left = (rank + 3) % 4;
            let right = (rank + 1) % 4;
            assert!(neighbors.contains(&left) && neighbors.contains(&right));
        })
        .unwrap();
    }

    #[test]
    fn invalid_topology_arguments_are_rejected() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            assert!(engine.cart_create(COMM_WORLD, &[], &[], false).is_err());
            assert!(engine
                .cart_create(COMM_WORLD, &[3, 3], &[false, false], false)
                .is_err());
            assert!(engine
                .graph_create(COMM_WORLD, &[1, 2], &[1], false)
                .is_err());
            // Topology queries on a communicator without one fail.
            assert!(engine.cart_coords(COMM_WORLD, 0).is_err());
            assert!(engine.graph_neighbors(COMM_WORLD, 0).is_err());
        })
        .unwrap();
    }
}
