//! Server-side handle for streamed (segmented) transfers.
//!
//! A server that implements [`crate::RpcServer::handle_streamed`] receives
//! a [`StreamWire`] alongside the request.  Instead of letting the
//! dispatcher charge the whole request and reply as two monolithic
//! messages, the server can move the *bulk payload* over the wire segment
//! by segment — typically from inside an [`amoeba_sim::Pipeline`] stage, so
//! wire time overlaps disk time.  Each segment is charged at the network's
//! continuation rate (no per-message setup: the transfer is still one
//! logical RPC) and the dispatcher charges only the *remaining* bytes of
//! the request and reply messages afterwards, so totals stay consistent
//! with the non-streamed path.
//!
//! Two flavours:
//!
//! * [`StreamWire::for_dispatch`] — the synchronous simulation fabric.
//!   Segments are pure cost events; the payload still travels in the
//!   [`crate::Request`]/[`crate::Reply`] structs (as zero-copy `Bytes`).
//!   Request-data streaming is supported: the bytes the server consumes via
//!   [`StreamWire::recv_request_segment`] are deducted from the request
//!   message charge.
//! * [`StreamWire::for_chan`] — the threaded channel transport.  Reply
//!   segments travel as real [`StreamFrame`]s ahead of the closing reply,
//!   and the client reassembles them.  The client has already paid for the
//!   full request at send time, so request-segment charges are no-ops here.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;

use amoeba_net::{Chan, SimEthernet};

use crate::wire::StreamFrame;

/// The default transfer segment size (64 KB): large enough to amortize
/// per-segment packet overhead, small enough that a 1 MB transfer has a
/// deep pipeline.
pub const DEFAULT_SEGMENT: u32 = 64 * 1024;

enum WireKind<'a> {
    /// Synchronous simulation: segments charge the Ethernet directly.
    /// The dispatcher lends its own Ethernet for the transaction.
    Sim(Cow<'a, SimEthernet>),
    /// Threaded transport: reply segments travel as real frames.
    Chan(Chan),
}

impl std::fmt::Debug for WireKind<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireKind::Sim(_) => f.write_str("Sim"),
            WireKind::Chan(_) => f.write_str("Chan"),
        }
    }
}

/// The wire as seen by a streaming server (see the module docs).  `'a`
/// is the Ethernet a dispatcher lends for one transaction; a wire built
/// by [`for_dispatch`](Self::for_dispatch) or
/// [`for_chan`](Self::for_chan) owns its transport.
#[derive(Debug)]
pub struct StreamWire<'a> {
    kind: WireKind<'a>,
    request_claimed: AtomicU64,
    reply_streamed: AtomicU64,
    seq: AtomicU32,
    /// Segment lengths staged via [`stage_reply_segment`]
    /// (`Self::stage_reply_segment`) whose frames are still owed to the
    /// channel peer — delivered by [`finish_reply`](Self::finish_reply).
    staged: Mutex<Vec<u64>>,
}

impl StreamWire<'_> {
    fn over(kind: WireKind<'_>) -> StreamWire<'_> {
        StreamWire {
            kind,
            request_claimed: AtomicU64::new(0),
            reply_streamed: AtomicU64::new(0),
            seq: AtomicU32::new(0),
            staged: Mutex::new(Vec::new()),
        }
    }

    /// A wire for the synchronous dispatch path over `net`.
    pub fn for_dispatch(net: SimEthernet) -> StreamWire<'static> {
        StreamWire::over(WireKind::Sim(Cow::Owned(net)))
    }

    /// The dispatch-path wire of one transaction, borrowing the
    /// dispatcher's Ethernet: a clone would bump the clock's and the
    /// stats' shared reference counts on every request.
    pub(crate) fn lent(net: &SimEthernet) -> StreamWire<'_> {
        StreamWire::over(WireKind::Sim(Cow::Borrowed(net)))
    }

    /// A wire for the threaded channel path: reply segments are delivered
    /// to the peer as [`StreamFrame`] messages on `chan`.
    pub fn for_chan(chan: Chan) -> StreamWire<'static> {
        StreamWire::over(WireKind::Chan(chan))
    }

    /// True if reply segments really travel as frames (the channel path),
    /// in which case the server should leave the closing reply's `data`
    /// empty — the client reassembles the payload from the frames.
    pub fn delivers_frames(&self) -> bool {
        matches!(self.kind, WireKind::Chan(_))
    }

    /// Charges the arrival of one request-data segment of `len` bytes at
    /// continuation rates and marks those bytes as consumed, so the
    /// dispatcher deducts them from the request message charge.  A no-op
    /// on the channel path (the client already paid for the whole
    /// request when it sent it).
    pub fn recv_request_segment(&self, len: u64) {
        if let WireKind::Sim(net) = &self.kind {
            net.send_stream(len);
            self.request_claimed.fetch_add(len, Ordering::Relaxed);
        }
    }

    /// Streams one reply segment.  On the dispatch path this charges the
    /// wire at continuation rates and marks the bytes as already sent (the
    /// dispatcher deducts them from the reply message charge); on the
    /// channel path it also delivers a real [`StreamFrame`] carrying
    /// `data` (a zero-copy slice) to the peer.
    pub fn send_reply_segment(&self, offset: u64, data: Bytes, last: bool) {
        let len = data.len() as u64;
        self.reply_streamed.fetch_add(len, Ordering::Relaxed);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        match &self.kind {
            WireKind::Sim(net) => {
                net.send_stream(len);
            }
            WireKind::Chan(chan) => {
                let frame = StreamFrame {
                    seq,
                    offset,
                    last,
                    data,
                };
                // A hung-up peer also fails the closing reply send, which
                // ends the serve loop; nothing to do here.
                let _ = chan.send_stream(frame.encode());
            }
        }
    }

    /// Streams one reply segment whose payload is *still being assembled*
    /// (a pipelined disk load reads straight into the reply buffer, so the
    /// bytes exist only when the whole transfer completes).  On the
    /// dispatch path this charges the wire immediately — call it from
    /// inside a pipeline stage so the charge lands in the wire lane.  On
    /// the channel path the frame cannot travel before its bytes exist,
    /// so the segment is recorded and both charged and delivered later by
    /// [`finish_reply`](Self::finish_reply).  Either way the bytes count
    /// as streamed, so the dispatcher deducts them from the reply message.
    pub fn stage_reply_segment(&self, len: u64) {
        self.reply_streamed.fetch_add(len, Ordering::Relaxed);
        match &self.kind {
            WireKind::Sim(net) => {
                net.send_stream(len);
            }
            WireKind::Chan(_) => self.staged.lock().push(len),
        }
    }

    /// Delivers the frames owed for segments staged with
    /// [`stage_reply_segment`](Self::stage_reply_segment), slicing them
    /// zero-copy out of the now-complete reply payload `data`.  A no-op on
    /// the dispatch path (segments there were pure cost events) and when
    /// nothing was staged.
    pub fn finish_reply(&self, data: &Bytes) {
        let staged: Vec<u64> = std::mem::take(&mut *self.staged.lock());
        if staged.is_empty() {
            return;
        }
        let WireKind::Chan(chan) = &self.kind else {
            return;
        };
        let mut off = 0u64;
        for (i, len) in staged.iter().enumerate() {
            let end = (off + len).min(data.len() as u64);
            let frame = StreamFrame {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                offset: off,
                last: i + 1 == staged.len(),
                data: data.slice(off as usize..end as usize),
            };
            let _ = chan.send_stream(frame.encode());
            off = end;
        }
    }

    /// Request-data bytes consumed as streamed segments.
    pub fn request_claimed(&self) -> u64 {
        self.request_claimed.load(Ordering::Relaxed)
    }

    /// Reply payload bytes already streamed.
    pub fn reply_streamed(&self) -> u64 {
        self.reply_streamed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_net::duplex;
    use amoeba_sim::{NetProfile, SimClock};

    fn net() -> (SimClock, SimEthernet) {
        let clock = SimClock::new();
        let n = SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit());
        (clock, n)
    }

    #[test]
    fn dispatch_wire_charges_and_accounts() {
        let (clock, n) = net();
        let wire = StreamWire::for_dispatch(n.clone());
        assert!(!wire.delivers_frames());
        wire.recv_request_segment(1000);
        wire.send_reply_segment(0, Bytes::from(vec![0; 2000]), true);
        assert_eq!(wire.request_claimed(), 1000);
        assert_eq!(wire.reply_streamed(), 2000);
        assert_eq!(n.stats().get("net_stream_frames"), 2);
        assert_eq!(n.stats().get("net_messages"), 0);
        assert!(clock.now().as_ns() > 0);
    }

    #[test]
    fn staged_segments_charge_now_and_deliver_later() {
        // Dispatch path: staging is a pure cost event, finish is a no-op.
        let (clock, n) = net();
        let wire = StreamWire::for_dispatch(n.clone());
        wire.stage_reply_segment(1000);
        wire.stage_reply_segment(500);
        assert_eq!(wire.reply_streamed(), 1500);
        assert_eq!(n.stats().get("net_stream_frames"), 2);
        let charged = clock.now();
        wire.finish_reply(&Bytes::from(vec![3u8; 1500]));
        assert_eq!(clock.now(), charged, "finish must not double-charge");

        // Channel path: frames travel only at finish, sliced zero-copy
        // out of the completed payload.
        let (_clock, n) = net();
        let (server_end, client_end) = duplex(&n);
        let wire = StreamWire::for_chan(server_end);
        wire.stage_reply_segment(4);
        wire.stage_reply_segment(3);
        assert_eq!(wire.reply_streamed(), 7);
        let payload = Bytes::from_static(b"abcdefg");
        wire.finish_reply(&payload);
        let f0 = StreamFrame::decode(client_end.recv().unwrap()).unwrap();
        let f1 = StreamFrame::decode(client_end.recv().unwrap()).unwrap();
        assert_eq!((f0.offset, f0.last, &f0.data[..]), (0, false, &b"abcd"[..]));
        assert_eq!((f1.offset, f1.last, &f1.data[..]), (4, true, &b"efg"[..]));
    }

    #[test]
    fn chan_wire_delivers_real_frames() {
        let (_clock, n) = net();
        let (server_end, client_end) = duplex(&n);
        let wire = StreamWire::for_chan(server_end);
        assert!(wire.delivers_frames());
        // Request segments are already paid for by the channel client.
        wire.recv_request_segment(500);
        assert_eq!(wire.request_claimed(), 0);
        wire.send_reply_segment(0, Bytes::from_static(b"first"), false);
        wire.send_reply_segment(5, Bytes::from_static(b"last"), true);
        let f0 = StreamFrame::decode(client_end.recv().unwrap()).unwrap();
        let f1 = StreamFrame::decode(client_end.recv().unwrap()).unwrap();
        assert_eq!((f0.seq, f0.offset, f0.last), (0, 0, false));
        assert_eq!((f1.seq, f1.offset, f1.last), (1, 5, true));
        assert_eq!(f0.data, Bytes::from_static(b"first"));
        assert_eq!(f1.data, Bytes::from_static(b"last"));
        assert_eq!(wire.reply_streamed(), 9);
    }
}
