//! One endpoint: an MPI-rank-like handle backed by a dedicated VCI.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use bytes::Bytes;
use rankmpi_core::matching::{MatchPattern, Status, ANY_SOURCE, ANY_TAG};
use rankmpi_core::pt2pt::{self, Route};
use rankmpi_core::request::Request;
use rankmpi_core::tag::TAG_UB;
use rankmpi_core::{Error, ProcShared, Result, ThreadCtx};

use crate::topology::EndpointTopology;

/// One user-visible endpoint.
///
/// A thread uses an endpoint exactly like it would use an MPI rank in MPI
/// everywhere: `send(th, dst_ep, tag, data)` where `dst_ep` is any endpoint's
/// global rank. Threads are *not* bound to endpoints — any thread may drive
/// any endpoint at any time (Lesson 10's flexibility for tasking runtimes);
/// concurrent use of one endpoint is legal and simply contends on that
/// endpoint's VCI, like threads sharing a rank do.
pub struct Endpoint {
    topo: Arc<EndpointTopology>,
    proc: Arc<ProcShared>,
    ep_rank: usize,
    vci_idx: usize,
    /// Collective sequence number (advances in lockstep across all endpoints
    /// because every collective involves every endpoint).
    pub(crate) coll_seq: AtomicU64,
}

impl Endpoint {
    pub(crate) fn new(
        topo: Arc<EndpointTopology>,
        proc: Arc<ProcShared>,
        ep_rank: usize,
        vci_idx: usize,
    ) -> Self {
        Endpoint {
            topo,
            proc,
            ep_rank,
            vci_idx,
            coll_seq: AtomicU64::new(0),
        }
    }

    /// This endpoint's global endpoint rank.
    pub fn rank(&self) -> usize {
        self.ep_rank
    }

    /// Total endpoints in the endpoints communicator.
    pub fn size(&self) -> usize {
        self.topo.size()
    }

    /// The endpoints communicator's shared topology.
    pub fn topology(&self) -> &Arc<EndpointTopology> {
        &self.topo
    }

    /// The VCI index backing this endpoint (exposed so RMA experiments can
    /// drive `Window::*_on_vci` through an endpoint's channel).
    pub fn vci_index(&self) -> usize {
        self.vci_idx
    }

    /// The owning process.
    pub fn proc(&self) -> &Arc<ProcShared> {
        &self.proc
    }

    fn check_ep(&self, ep: usize) -> Result<()> {
        if ep >= self.topo.size() {
            return Err(Error::InvalidRank {
                rank: ep as i64,
                size: self.topo.size(),
            });
        }
        Ok(())
    }

    fn check_tag(tag: i64) -> Result<()> {
        if !(0..=TAG_UB).contains(&tag) {
            return Err(Error::TagOutOfRange { tag });
        }
        Ok(())
    }

    /// Validate a receive or probe envelope: an endpoint rank or
    /// [`ANY_SOURCE`], a tag in range or [`ANY_TAG`].
    fn check_recv(&self, src: i64, tag: i64) -> Result<()> {
        if src != ANY_SOURCE {
            self.check_ep(src as usize)?;
        }
        if tag != ANY_TAG {
            Self::check_tag(tag)?;
        }
        Ok(())
    }

    /// Nonblocking send to endpoint `dst_ep` (eager: locally complete).
    pub fn isend(
        &self,
        th: &mut ThreadCtx,
        dst_ep: usize,
        tag: i64,
        data: &[u8],
    ) -> Result<Request> {
        self.isend_ctx(th, self.topo.ctx_id, dst_ep, tag, data)
    }

    /// Map `dst_ep` to its process and VCI and send on the shared eager route.
    pub(crate) fn isend_ctx(
        &self,
        th: &mut ThreadCtx,
        ctx_id: u32,
        dst_ep: usize,
        tag: i64,
        data: &[u8],
    ) -> Result<Request> {
        self.check_ep(dst_ep)?;
        Self::check_tag(tag)?;
        let route = Route {
            src_vci: self.vci_idx,
            proc: self.topo.proc_of(dst_ep),
            dst_vci: self.topo.vci_of(dst_ep),
            ctx_id,
            src: self.ep_rank,
            dst: dst_ep,
        };
        pt2pt::send_eager(th, &route, tag, data)
    }

    /// Blocking send.
    pub fn send(&self, th: &mut ThreadCtx, dst_ep: usize, tag: i64, data: &[u8]) -> Result<()> {
        let r = self.isend(th, dst_ep, tag, data)?;
        r.wait(&mut th.clock);
        Ok(())
    }

    /// Nonblocking receive *on this endpoint*. `src` is an endpoint rank or
    /// [`ANY_SOURCE`]; `tag` may be [`ANY_TAG`]. Wildcards are always legal:
    /// matching is local to this endpoint's engine (Lesson 11).
    pub fn irecv(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<Request> {
        self.irecv_ctx(th, self.topo.ctx_id, src, tag)
    }

    /// Post a receive on this endpoint's VCI through the shared receive post.
    pub(crate) fn irecv_ctx(
        &self,
        th: &mut ThreadCtx,
        ctx_id: u32,
        src: i64,
        tag: i64,
    ) -> Result<Request> {
        self.check_recv(src, tag)?;
        let pattern = MatchPattern {
            context_id: ctx_id,
            src,
            tag,
        };
        pt2pt::post_recv(th, self.vci_idx, pattern)
    }

    /// Blocking receive.
    pub fn recv(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<(Status, Bytes)> {
        self.irecv(th, src, tag)?.wait_outcome(&mut th.clock)
    }

    /// Nonblocking probe on this endpoint (wildcards always legal).
    pub fn iprobe(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<Option<Status>> {
        self.check_recv(src, tag)?;
        let _mpi = th.enter_mpi();
        let pattern = MatchPattern {
            context_id: self.topo.ctx_id,
            src,
            tag,
        };
        Ok(self.proc.vci(self.vci_idx).iprobe(&mut th.clock, &pattern))
    }

    /// Probe-and-receive if a matching message is already here.
    pub fn try_recv(
        &self,
        th: &mut ThreadCtx,
        src: i64,
        tag: i64,
    ) -> Result<Option<(Status, Bytes)>> {
        match self.iprobe(th, src, tag)? {
            Some(st) => Ok(Some(self.recv(th, st.source as i64, st.tag)?)),
            None => Ok(None),
        }
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("ep_rank", &self.ep_rank)
            .field("vci", &self.vci_idx)
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_create_endpoints;
    use rankmpi_core::{Info, Universe};

    #[test]
    fn endpoint_to_endpoint_roundtrip() {
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 2, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                // Pair endpoint i of rank 0 with endpoint i of rank 1.
                let peer = if env.rank() == 0 {
                    ep.topology().ep_rank(1, th.tid())
                } else {
                    ep.topology().ep_rank(0, th.tid())
                };
                if env.rank() == 0 {
                    ep.send(th, peer, 5, b"to-ep").unwrap();
                    let (st, data) = ep.recv(th, peer as i64, 6).unwrap();
                    assert_eq!(st.source, peer);
                    assert_eq!(&data[..], b"back");
                } else {
                    let (st, data) = ep.recv(th, peer as i64, 5).unwrap();
                    assert_eq!(st.source, peer);
                    assert_eq!(&data[..], b"to-ep");
                    ep.send(th, peer, 6, b"back").unwrap();
                }
            });
        });
    }

    #[test]
    fn wildcard_on_one_endpoint_sees_all_senders() {
        // The Legion pattern: one polling endpoint receives from many task
        // threads' endpoints with ANY_SOURCE (Fig. 5, right side).
        let u = Universe::builder().nodes(2).threads_per_proc(3).build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let n_ep = 3;
            let eps = comm_create_endpoints(&world, &mut th0, n_ep, &Info::new()).unwrap();
            if env.rank() == 0 {
                // Three task threads send from their own endpoints.
                let eps = &eps;
                env.parallel(|th| {
                    let ep = &eps[th.tid()];
                    let poller = ep.topology().ep_rank(1, 0);
                    ep.send(th, poller, th.tid() as i64, b"event").unwrap();
                });
            } else {
                // One polling endpoint drains everything with wildcards.
                let poll_ep = &eps[0];
                let mut seen = Vec::new();
                while seen.len() < 3 {
                    if let Some((st, _)) = poll_ep.try_recv(&mut th0, ANY_SOURCE, ANY_TAG).unwrap()
                    {
                        seen.push(st.tag);
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1, 2]);
            }
        });
    }

    #[test]
    fn messages_between_distinct_endpoint_pairs_are_parallel() {
        // Two endpoint pairs at t=0 inject on distinct hardware contexts:
        // identical virtual timing — no serialization between them.
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 2, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                if env.rank() == 0 {
                    let peer = ep.topology().ep_rank(1, th.tid());
                    ep.send(th, peer, 0, &[0u8; 8]).unwrap();
                    th.clock.now()
                } else {
                    let peer = ep.topology().ep_rank(0, th.tid());
                    let _ = ep.recv(th, peer as i64, 0).unwrap();
                    th.clock.now()
                }
            })
        });
        // Sender-side completion times identical across the two endpoints.
        assert_eq!(out[0][0], out[0][1]);
    }

    #[test]
    fn bad_endpoint_rank_is_rejected() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th, 1, &Info::new()).unwrap();
            let ep = &eps[0];
            assert!(matches!(
                ep.send(&mut th, 99, 0, b""),
                Err(Error::InvalidRank { .. })
            ));
            // Probes validate their envelope like receives do.
            assert!(matches!(
                ep.iprobe(&mut th, 99, 0),
                Err(Error::InvalidRank { rank: 99, .. })
            ));
            assert!(matches!(
                ep.iprobe(&mut th, 0, -7),
                Err(Error::TagOutOfRange { tag: -7 })
            ));
            assert!(matches!(
                ep.try_recv(&mut th, 99, ANY_TAG),
                Err(Error::InvalidRank { .. })
            ));
            assert!(matches!(
                ep.try_recv(&mut th, ANY_SOURCE, TAG_UB + 1),
                Err(Error::TagOutOfRange { .. })
            ));
        });
    }
}
