//! Length-prefixed frames: `len: u64 LE | payload[len]`.
//!
//! The frame layer only delimits; integrity comes from the payload, which
//! is always a checksummed `hqr_tile::io` sectioned container (see
//! [`crate::msg`]). The length is validated against [`MAX_FRAME`] *before*
//! any allocation, so a hostile or corrupt length word cannot blow up the
//! allocator, and short reads surface as typed errors.

use crate::error::NetError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a frame payload (256 MiB — far above the largest tile
/// message we ever send, far below anything that could hurt).
pub const MAX_FRAME: u64 = 1 << 28;

/// Connect with `timeout` as the connect, read and write deadline, and
/// Nagle off (a frame is written whole).
pub(crate) fn dial(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, NetError> {
    let failed = |e: std::io::Error| NetError::Io(format!("connect {addr}: {e}"));
    let s = TcpStream::connect_timeout(&addr, timeout).map_err(failed)?;
    s.set_nodelay(true).map_err(failed)?;
    s.set_read_timeout(Some(timeout)).map_err(failed)?;
    s.set_write_timeout(Some(timeout)).map_err(failed)?;
    Ok(s)
}

/// Write one frame. Flushes, so the peer's blocking read returns.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    if payload.len() as u64 > MAX_FRAME {
        return Err(NetError::FrameTooLarge { declared: payload.len() as u64, cap: MAX_FRAME });
    }
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf).map_err(|e| NetError::from_io(e, "frame write", Duration::ZERO))?;
    w.flush().map_err(|e| NetError::from_io(e, "frame flush", Duration::ZERO))?;
    Ok(())
}

/// Read one frame under the caller-configured socket deadline.
///
/// `what` names the thing being awaited (for timeout diagnostics);
/// `deadline` is reported in the error, the enforcement is the socket's
/// own read timeout.
pub fn read_frame(r: &mut impl Read, what: &str, deadline: Duration) -> Result<Vec<u8>, NetError> {
    let mut len_bytes = [0u8; 8];
    read_exact(r, &mut len_bytes, what, deadline)?;
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(NetError::FrameTooLarge { declared: len, cap: MAX_FRAME });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload, what, deadline)?;
    Ok(payload)
}

fn read_exact(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &str,
    deadline: Duration,
) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(NetError::Io(format!(
                    "{what}: connection closed mid-frame ({filled}/{} bytes)",
                    buf.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::from_io(e, what, deadline)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r, "t", Duration::ZERO).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, "t", Duration::ZERO).unwrap(), b"");
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u64::MAX.to_le_bytes());
        wire.extend_from_slice(b"junk");
        let err = read_frame(&mut wire.as_slice(), "t", Duration::ZERO).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { declared: u64::MAX, .. }), "{err}");
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        for cut in 0..wire.len() {
            let err = read_frame(&mut &wire[..cut], "t", Duration::ZERO).unwrap_err();
            assert!(
                matches!(err, NetError::Io(_)),
                "cut at {cut}: expected Io(closed mid-frame), got {err}"
            );
        }
    }

    #[test]
    fn writer_refuses_oversized_payload_without_allocating_wire() {
        // Can't build a >256MiB buffer cheaply, so check the guard directly.
        struct Counted(usize);
        impl Write for Counted {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0 += b.len();
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // MAX_FRAME itself is allowed; MAX_FRAME+1 must be refused. Use a
        // zero-copy view to avoid materializing 256MiB twice: a Vec of that
        // size is fine in CI.
        let big = vec![0u8; (MAX_FRAME + 1) as usize];
        let mut sink = Counted(0);
        let err = write_frame(&mut sink, &big).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }));
        assert_eq!(sink.0, 0, "nothing may hit the wire");
    }
}
