#![warn(missing_docs)]

//! User-visible MPI Endpoints — the design the paper re-brands as
//! **MPI Rankpoints**.
//!
//! [`comm_create_endpoints`] implements the suspended MPI Forum proposal's API
//! (the paper's Fig. 2): a collective call on a parent communicator in which
//! every process asks for `my_num_ep` endpoints and receives that many
//! handles. Each [`Endpoint`] is addressable by a *global endpoint rank* —
//! endpoints take on the semantics of MPI ranks, so messages from different
//! endpoints are unordered (logically parallel) and a thread can target any
//! remote endpoint directly, exactly like MPI-everywhere addressing
//! (Lesson 10).
//!
//! Endpoints are a thin rank map over the core library, not a parallel
//! stack: an [`EndpointTopology`] maps each endpoint rank to its owning
//! (process, VCI), point-to-point calls turn endpoint ranks into a
//! [`rankmpi_core::pt2pt::Route`] for the shared eager send and receive post,
//! and the collectives run `rankmpi_core::coll`'s algorithms through a small
//! [`rankmpi_core::coll::CollPort`]. Endpoint traffic thus gets the same
//! thread-level checks, crash hooks and revoked/dead-peer refusals as
//! communicator traffic, and failures come back as errors.
//!
//! Implementation notes mirroring the paper's discussion:
//! - each endpoint owns a *dedicated VCI* (matching engine + mailbox +
//!   hardware context), allocated from the node's bounded context pool — so
//!   endpoints consume only as many network resources as there are
//!   communicating threads (Lesson 12), and the library, not the user, maps
//!   endpoints onto hardware (Lesson 17: endpoints are *not* handles to
//!   network resources);
//! - matching is per-endpoint, so wildcards work on any endpoint without
//!   constraining other endpoints' parallelism (Lesson 11 — the Legion
//!   polling-thread pattern);
//! - collectives are **one-step**: all endpoints of all processes participate
//!   in the same operation and the library performs both the internode and
//!   intranode portions (Lesson 18), at the cost of duplicating result
//!   buffers on a node (Lesson 19 — measurable via the bytes-delivered
//!   accounting in [`coll`]).

pub mod coll;
pub mod endpoint;
pub mod topology;

pub use endpoint::Endpoint;
pub use topology::{comm_create_endpoints, EndpointTopology};
