//! Messages, status codes, and the binary wire codec.

use amoeba_cap::{Capability, CAP_WIRE_LEN};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Standard status codes, modelled on Amoeba's `STD_*` error space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Status {
    /// The operation succeeded.
    Ok,
    /// The capability failed verification (forged, tampered, or stale).
    CapBad,
    /// The command is not understood by the server.
    ComBad,
    /// Internal server error.
    SysErr,
    /// The server cannot do this right now (e.g. resource exhaustion that
    /// may clear).
    NotNow,
    /// The server is out of memory (cache cannot hold the file).
    NoMem,
    /// The server is out of disk space.
    NoSpace,
    /// The object does not exist.
    NotFound,
    /// The capability is genuine but lacks the required rights.
    Denied,
    /// The object already exists (directory enter of a taken name).
    Exists,
    /// A parameter was malformed.
    BadParam,
    /// The shard that owns the addressed object is down; the rest of the
    /// service keeps running.  Distinct from [`Status::NotFound`] so
    /// clients can tell "never existed" from "temporarily unreachable".
    ShardDown,
    /// An unrecognized (future) status code carried through verbatim.
    Other(i32),
}

impl Status {
    /// The wire representation (0 for success, negative for errors).
    pub fn code(self) -> i32 {
        match self {
            Status::Ok => 0,
            Status::CapBad => -1,
            Status::ComBad => -2,
            Status::SysErr => -3,
            Status::NotNow => -4,
            Status::NoMem => -5,
            Status::NoSpace => -6,
            Status::NotFound => -7,
            Status::Denied => -8,
            Status::Exists => -9,
            Status::BadParam => -10,
            Status::ShardDown => -11,
            Status::Other(c) => c,
        }
    }

    /// Parses a wire code.
    pub fn from_code(c: i32) -> Status {
        match c {
            0 => Status::Ok,
            -1 => Status::CapBad,
            -2 => Status::ComBad,
            -3 => Status::SysErr,
            -4 => Status::NotNow,
            -5 => Status::NoMem,
            -6 => Status::NoSpace,
            -7 => Status::NotFound,
            -8 => Status::Denied,
            -9 => Status::Exists,
            -10 => Status::BadParam,
            -11 => Status::ShardDown,
            other => Status::Other(other),
        }
    }

    /// True for [`Status::Ok`].
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Status::Ok => "ok",
            Status::CapBad => "bad capability",
            Status::ComBad => "bad command",
            Status::SysErr => "server error",
            Status::NotNow => "not now",
            Status::NoMem => "out of memory",
            Status::NoSpace => "out of disk space",
            Status::NotFound => "not found",
            Status::Denied => "permission denied",
            Status::Exists => "already exists",
            Status::BadParam => "bad parameter",
            Status::ShardDown => "shard down",
            Status::Other(c) => return write!(f, "status {c}"),
        };
        write!(f, "{name}")
    }
}

impl std::error::Error for Status {}

/// The standard command space every Amoeba server answers in addition to
/// its own protocol (the real system's `STD_INFO` / `STD_STATUS`): one
/// line about an object, and a counters dump about the server.  Codes sit
/// high so they never collide with per-server command spaces.
pub mod std_commands {
    /// One human-readable line describing the addressed object.
    pub const INFO: u32 = 0xF001;
    /// A human-readable counters dump for the whole server.
    pub const STATUS: u32 = 0xF002;
    /// A versioned machine-readable snapshot of every counter and the
    /// simulated clock, as one JSON object.
    pub const MONITOR: u32 = 0xF003;
}

/// An RPC request: an operation on the object addressed by `cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The object the operation applies to; its port selects the server.
    pub cap: Capability,
    /// The command code (each server defines its own command space).
    pub command: u32,
    /// Marshalled fixed-size parameters.
    pub params: Bytes,
    /// Bulk data (a whole file, for the Bullet server).
    pub data: Bytes,
}

impl Request {
    /// A request with empty params and data.
    pub fn simple(cap: Capability, command: u32) -> Request {
        Request {
            cap,
            command,
            params: Bytes::new(),
            data: Bytes::new(),
        }
    }

    /// Total wire size in bytes (header + payloads).
    pub fn wire_size(&self) -> u64 {
        (CAP_WIRE_LEN + 4 + 4 + 4 + self.params.len() + self.data.len()) as u64
    }

    /// Serializes to the wire form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size() as usize);
        buf.put_slice(&self.cap.to_wire());
        buf.put_u32(self.command);
        buf.put_u32(self.params.len() as u32);
        buf.put_u32(self.data.len() as u32);
        buf.put_slice(&self.params);
        buf.put_slice(&self.data);
        buf.freeze()
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`Status::BadParam`] on any truncation or malformed capability.
    pub fn decode(mut buf: Bytes) -> Result<Request, Status> {
        if buf.len() < CAP_WIRE_LEN + 12 {
            return Err(Status::BadParam);
        }
        let cap =
            Capability::from_wire(&buf.split_to(CAP_WIRE_LEN)).map_err(|_| Status::BadParam)?;
        let command = buf.get_u32();
        let plen = buf.get_u32() as usize;
        let dlen = buf.get_u32() as usize;
        if buf.len() != plen + dlen {
            return Err(Status::BadParam);
        }
        let params = buf.split_to(plen);
        let data = buf;
        Ok(Request {
            cap,
            command,
            params,
            data,
        })
    }
}

/// An RPC reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Outcome of the operation.
    pub status: Status,
    /// Marshalled fixed-size results.
    pub params: Bytes,
    /// Bulk data (a whole file, for a Bullet read).
    pub data: Bytes,
}

impl Reply {
    /// A bare error reply.
    pub fn error(status: Status) -> Reply {
        Reply {
            status,
            params: Bytes::new(),
            data: Bytes::new(),
        }
    }

    /// A success reply with the given parts.
    pub fn ok(params: Bytes, data: Bytes) -> Reply {
        Reply {
            status: Status::Ok,
            params,
            data,
        }
    }

    /// Total wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        (4 + 4 + 4 + self.params.len() + self.data.len()) as u64
    }

    /// Serializes to the wire form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size() as usize);
        buf.put_i32(self.status.code());
        buf.put_u32(self.params.len() as u32);
        buf.put_u32(self.data.len() as u32);
        buf.put_slice(&self.params);
        buf.put_slice(&self.data);
        buf.freeze()
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`Status::BadParam`] on truncation.
    pub fn decode(mut buf: Bytes) -> Result<Reply, Status> {
        if buf.len() < 12 {
            return Err(Status::BadParam);
        }
        let status = Status::from_code(buf.get_i32());
        let plen = buf.get_u32() as usize;
        let dlen = buf.get_u32() as usize;
        if buf.len() != plen + dlen {
            return Err(Status::BadParam);
        }
        let params = buf.split_to(plen);
        Ok(Reply {
            status,
            params,
            data: buf,
        })
    }

    /// Converts an error status into `Err`, passing success through.
    ///
    /// # Errors
    ///
    /// The reply's own status when it is not [`Status::Ok`].
    pub fn into_result(self) -> Result<Reply, Status> {
        if self.status.is_ok() {
            Ok(self)
        } else {
            Err(self.status)
        }
    }
}

/// Magic prefix distinguishing a streamed continuation frame from an
/// encoded [`Reply`] on the same channel (`"BLSF"`).  Replies begin with a
/// status code that is zero or negative on every defined status, so the
/// prefix cannot collide with a well-formed reply.
pub const STREAM_MAGIC: u32 = 0x424C_5346;

/// One streamed segment of a large transfer: a continuation of an RPC
/// already in flight, carrying a zero-copy [`Bytes`] slice of the payload.
///
/// Frames flow between the request and its final [`Reply`]; the receiver
/// reassembles them by `offset` and the closing reply carries the status
/// and params (with the bulk data left to the frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// Sequence number of this frame within the transfer (0-based).
    pub seq: u32,
    /// Byte offset of this segment within the whole payload.
    pub offset: u64,
    /// True on the final segment of the transfer.
    pub last: bool,
    /// The segment payload — a slice of the source buffer, not a copy.
    pub data: Bytes,
}

impl StreamFrame {
    /// Fixed header length: magic + seq + offset + flags + data length.
    pub const HEADER_LEN: usize = 4 + 4 + 8 + 1 + 4;

    /// True if `buf` starts with the stream-frame magic (cheap dispatch
    /// test for receivers that may get frames or replies).
    pub fn is_frame(buf: &[u8]) -> bool {
        buf.len() >= 4 && buf[..4] == STREAM_MAGIC.to_be_bytes()
    }

    /// Total wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        (Self::HEADER_LEN + self.data.len()) as u64
    }

    /// Serializes to the wire form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::HEADER_LEN + self.data.len());
        buf.put_u32(STREAM_MAGIC);
        buf.put_u32(self.seq);
        buf.put_u64(self.offset);
        buf.put_u8(self.last as u8);
        buf.put_u32(self.data.len() as u32);
        buf.put_slice(&self.data);
        buf.freeze()
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`Status::BadParam`] on a missing magic, truncation, or length
    /// mismatch.
    pub fn decode(mut buf: Bytes) -> Result<StreamFrame, Status> {
        if buf.len() < Self::HEADER_LEN || buf.get_u32() != STREAM_MAGIC {
            return Err(Status::BadParam);
        }
        let seq = buf.get_u32();
        let offset = buf.get_u64();
        let last = buf.get_u8() != 0;
        let dlen = buf.get_u32() as usize;
        if buf.len() != dlen {
            return Err(Status::BadParam);
        }
        Ok(StreamFrame {
            seq,
            offset,
            last,
            data: buf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::{ObjNum, Port, Rights};

    fn cap() -> Capability {
        Capability::new(Port::from_u64(9), ObjNum::new(3).unwrap(), Rights::ALL, 77)
    }

    #[test]
    fn status_code_roundtrip() {
        for s in [
            Status::Ok,
            Status::CapBad,
            Status::ComBad,
            Status::SysErr,
            Status::NotNow,
            Status::NoMem,
            Status::NoSpace,
            Status::NotFound,
            Status::Denied,
            Status::Exists,
            Status::BadParam,
            Status::ShardDown,
            Status::Other(-99),
        ] {
            assert_eq!(Status::from_code(s.code()), s);
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = Request {
            cap: cap(),
            command: 0xdead,
            params: Bytes::from_static(&[1, 2, 3]),
            data: Bytes::from_static(b"file contents"),
        };
        let wire = req.encode();
        assert_eq!(wire.len() as u64, req.wire_size());
        assert_eq!(Request::decode(wire).unwrap(), req);
    }

    #[test]
    fn reply_roundtrip() {
        let rep = Reply {
            status: Status::NoSpace,
            params: Bytes::from_static(&[9]),
            data: Bytes::from_static(b"zz"),
        };
        assert_eq!(Reply::decode(rep.encode()).unwrap(), rep);
    }

    #[test]
    fn decode_rejects_truncation() {
        let req = Request::simple(cap(), 1);
        let wire = req.encode();
        assert_eq!(
            Request::decode(wire.slice(..wire.len() - 1)),
            Err(Status::BadParam)
        );
        assert_eq!(
            Request::decode(Bytes::from_static(&[0; 5])),
            Err(Status::BadParam)
        );
        assert_eq!(
            Reply::decode(Bytes::from_static(&[0; 3])),
            Err(Status::BadParam)
        );
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let mut wire = BytesMut::from(&Request::simple(cap(), 1).encode()[..]);
        wire.extend_from_slice(b"trailing junk");
        assert_eq!(Request::decode(wire.freeze()), Err(Status::BadParam));
    }

    #[test]
    fn into_result_maps_status() {
        assert!(Reply::ok(Bytes::new(), Bytes::new()).into_result().is_ok());
        assert_eq!(
            Reply::error(Status::Denied).into_result().unwrap_err(),
            Status::Denied
        );
    }

    #[test]
    fn display_statuses() {
        assert_eq!(Status::Ok.to_string(), "ok");
        assert_eq!(Status::Other(-42).to_string(), "status -42");
    }

    #[test]
    fn stream_frame_roundtrip() {
        let frame = StreamFrame {
            seq: 3,
            offset: 196_608,
            last: true,
            data: Bytes::from_static(b"segment payload"),
        };
        let wire = frame.encode();
        assert_eq!(wire.len() as u64, frame.wire_size());
        assert!(StreamFrame::is_frame(&wire));
        assert_eq!(StreamFrame::decode(wire).unwrap(), frame);
    }

    #[test]
    fn stream_frame_data_is_zero_copy_slice() {
        let payload = Bytes::from(vec![7u8; 1 << 16]);
        let frame = StreamFrame {
            seq: 0,
            offset: 0,
            last: false,
            data: payload.slice(1024..2048),
        };
        // The frame shares the payload allocation — no copy until encode.
        assert_eq!(frame.data.as_ptr(), payload.slice(1024..2048).as_ptr());
    }

    #[test]
    fn replies_are_not_mistaken_for_frames() {
        let rep = Reply::ok(Bytes::new(), Bytes::from_static(b"data")).encode();
        assert!(!StreamFrame::is_frame(&rep));
        assert_eq!(
            StreamFrame::decode(Bytes::from_static(&[0; 30])),
            Err(Status::BadParam)
        );
        let whole = StreamFrame {
            seq: 0,
            offset: 0,
            last: false,
            data: Bytes::from_static(b"xy"),
        }
        .encode();
        assert_eq!(
            StreamFrame::decode(whole.slice(..whole.len() - 1)),
            Err(Status::BadParam)
        );
    }
}
