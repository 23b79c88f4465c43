//! Machine and process topology models for many-core all-to-all collectives.
//!
//! This crate describes *where ranks live*: the shape of a many-core
//! cluster (nodes, sockets, NUMA domains, cores), the mapping from MPI-style
//! world ranks onto that shape, and the sub-communicator algebra used by
//! hierarchical, node-aware, locality-aware, and multi-leader all-to-all
//! algorithms (paper Algorithms 3–5).
//!
//! Everything here is pure data and index arithmetic: no I/O, no threads.
//! The schedule builders in `a2a-core` and the simulator in `a2a-netsim`
//! consume these types.
//!
//! # Example
//!
//! ```
//! use a2a_topo::{Machine, ProcGrid, Level};
//!
//! // A small Dane-like machine: 4 nodes, 2 sockets x 2 NUMA x 4 cores = 16 ppn.
//! let m = Machine::custom("mini", 4, 2, 2, 4);
//! let grid = ProcGrid::new(m);
//! assert_eq!(grid.world_size(), 64);
//! assert_eq!(grid.level(0, 1), Level::IntraNuma);
//! assert_eq!(grid.level(0, 17), Level::InterNode);
//!
//! // Node-aware communicators (Algorithm 4, one region per node):
//! let group = grid.cross_region_comm(3, grid.machine().ppn());
//! assert_eq!(group.size(), 4); // one peer per node
//! ```

mod comm;
mod machine;
pub mod presets;

pub use comm::CommView;
pub use machine::{Level, Location, Machine, MapOrder, ProcGrid};
pub use presets::{amber, dane, scaled_many_core, tuolumne};

/// A world rank. `u32` keeps op encodings compact; 4 G ranks is plenty.
pub type Rank = u32;
