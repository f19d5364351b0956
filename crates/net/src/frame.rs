//! Length-prefixed frames: `len: u64 LE | payload[len]`.
//!
//! The frame layer only delimits; integrity comes from the payload, which
//! is always a checksummed `hqr_tile::io` sectioned container (see
//! [`crate::msg`]). The length is validated against [`MAX_FRAME`] *before*
//! any allocation, so a hostile or corrupt length word cannot blow up the
//! allocator, and short reads surface as typed errors.

use crate::error::NetError;
use hqr_tile::io::SectionList;
use std::io::{ErrorKind, IoSlice, Read, Write};
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

fn check_len(len: u64) -> Result<(), NetError> {
    if len > MAX_FRAME {
        return Err(NetError::FrameTooLarge { declared: len, cap: MAX_FRAME });
    }
    Ok(())
}

fn flush(w: &mut impl Write, written: std::io::Result<()>) -> Result<(), NetError> {
    written.map_err(|e| NetError::from_io(e, "frame write", Duration::ZERO))?;
    w.flush().map_err(|e| NetError::from_io(e, "frame flush", Duration::ZERO))
}

/// Write one frame: the length and the payload as one vectored write, with
/// no staging copy. Flushes, so the peer's blocking read returns.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    check_len(payload.len() as u64)?;
    let len = (payload.len() as u64).to_le_bytes();
    let written = write_all_vectored(w, &mut [IoSlice::new(&len), IoSlice::new(payload)]);
    flush(w, written)
}

fn write_all_vectored(w: &mut impl Write, mut rest: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write `list` as one frame, its borrowed parts handed to the writer
/// uncopied (see [`SectionList::write_to`]).
pub(crate) fn write_list(w: &mut impl Write, list: &SectionList<'_>) -> Result<(), NetError> {
    check_len(list.encoded_len() as u64)?;
    let written = list.write_to(w, true);
    flush(w, written)
}

/// Read one frame under the caller-configured socket deadline.
///
/// `what` names the thing being awaited (for timeout diagnostics);
/// `deadline` is reported in the error, the enforcement is the socket's
/// own read timeout.
pub fn read_frame(r: &mut impl Read, what: &str, deadline: Duration) -> Result<Vec<u8>, NetError> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload, what, deadline)?;
    Ok(payload)
}

/// [`read_frame`] into `buf`, which a connection keeps across frames: once
/// it has grown to the largest frame seen, reading a frame allocates and
/// zero-fills nothing. On error `buf` holds no frame.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    what: &str,
    deadline: Duration,
) -> Result<(), NetError> {
    let mut len_bytes = [0u8; 8];
    read_exact(r, &mut len_bytes, what, deadline)?;
    let len = u64::from_le_bytes(len_bytes);
    check_len(len)?;
    // Only growth is zero-filled; the read overwrites all of it.
    buf.resize(len as usize, 0);
    read_exact(r, buf, what, deadline)
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

    /// A writer that takes one byte per call, and with `interrupt` fails
    /// every other call with `Interrupted`; with `zero` it accepts nothing.
    #[derive(Default)]
    struct Stingy {
        out: Vec<u8>,
        calls: usize,
        interrupt: bool,
        zero: bool,
    }

    impl Write for Stingy {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls.is_multiple_of(2) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = if self.zero { 0 } else { b.len().min(1) };
            self.out.extend_from_slice(&b[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_frames_survive_short_and_interrupted_writes_byte_for_byte() {
        for payload in [&b""[..], b"x", b"a payload of some length"] {
            // What the staging writer produced: the length word, then the payload.
            let staged = [&(payload.len() as u64).to_le_bytes()[..], payload].concat();
            for interrupt in [false, true] {
                let mut w = Stingy { interrupt, ..Stingy::default() };
                write_frame(&mut w, payload).unwrap();
                assert_eq!(w.out, staged, "interrupt={interrupt}");
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        assert_eq!(wire, [&5u64.to_le_bytes()[..], b"hello"].concat());
    }

    #[test]
    fn a_writer_that_takes_nothing_is_a_typed_error() {
        let mut w = Stingy { zero: true, ..Stingy::default() };
        let err = write_frame(&mut w, b"payload").unwrap_err();
        assert!(matches!(&err, NetError::Io(m) if m.contains("frame write")), "{err}");
    }

    #[test]
    fn a_reused_read_buffer_holds_exactly_each_frame() {
        let mut wire = Vec::new();
        for payload in [&b"a longer first frame"[..], b"short", b"", b"middling"] {
            write_frame(&mut wire, payload).unwrap();
        }
        let (mut r, mut buf) = (wire.as_slice(), Vec::new());
        for payload in [&b"a longer first frame"[..], b"short", b"", b"middling"] {
            read_frame_into(&mut r, &mut buf, "t", Duration::ZERO).unwrap();
            assert_eq!(buf, payload);
        }
    }
}
