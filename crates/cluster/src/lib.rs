//! Server/VM inventory, multi-dimensional bin packing, oversubscription,
//! and failover for the paper's datacenter use-cases (Section V).
//!
//! Cloud providers "use multi-dimensional bin packing to place VMs on
//! servers" (Protean \[28\]); the dense-packing, buffer-reduction, and
//! capacity-crisis use-cases all manipulate this layer. The crate
//! provides:
//!
//! * [`vm`] — VM specifications (vcores, memory, priority class),
//! * [`server`] — physical hosts with per-server frequency state,
//! * [`placement`] — first-fit / best-fit-decreasing packing with a
//!   configurable pcore oversubscription ratio,
//! * [`cluster`] — the inventory: create/delete VMs, fail servers,
//!   re-create displaced VMs, and measure packing density,
//! * [`lifecycle`] — trace-driven VM arrivals and departures on the
//!   discrete-event queue.
//!
//! # Example
//!
//! ```
//! use ic_cluster::cluster::Cluster;
//! use ic_cluster::placement::{PlacementPolicy, Oversubscription};
//! use ic_cluster::server::ServerSpec;
//! use ic_cluster::vm::VmSpec;
//! use ic_sim::time::SimTime;
//!
//! let mut cluster = Cluster::new(
//!     vec![ServerSpec::open_compute(); 4],
//!     PlacementPolicy::BestFit,
//!     Oversubscription::none(),
//! );
//! let vm = cluster.create_vm(SimTime::ZERO, VmSpec::new(4, 16.0)).unwrap();
//! assert_eq!(cluster.vm_count(), 1);
//! cluster.delete_vm(SimTime::ZERO, vm).unwrap();
//! ```

pub mod cluster;
pub mod lifecycle;
pub mod placement;
pub mod server;
pub mod vm;

pub use cluster::Cluster;
pub use placement::{Oversubscription, PlacementPolicy};
pub use server::ServerSpec;
pub use vm::VmSpec;
