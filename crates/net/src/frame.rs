//! Length-prefixed frames, `len: u64 LE | payload[len]`, in `NetError`s.
//!
//! The codec is `hqr_tile::io`'s ([`hqr_tile::io::read_frame_into`] and
//! friends): the length is checked against [`MAX_FRAME`] before anything is
//! allocated, a connection reads every frame into one buffer it keeps, and
//! integrity comes from the payload, which is always a checksummed section
//! container (see [`crate::msg`]). This module only names what failed: an
//! oversized length is [`NetError::FrameTooLarge`], a socket deadline
//! [`NetError::Timeout`], and a stream that ends — inside a frame or
//! between two while a reply is awaited — [`NetError::Io`].

use crate::error::NetError;
use hqr_tile::io::{FrameError, SectionList, MAX_FRAME};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

/// `e` while `what` was under way; `deadline` is what a timeout reports.
fn net_error(e: FrameError, what: &str, deadline: Duration) -> NetError {
    match e {
        FrameError::TooLarge { declared } => NetError::FrameTooLarge { declared, cap: MAX_FRAME },
        FrameError::Io(e) => NetError::from_io(e, what, deadline),
        cut => NetError::Io(format!("{what}: {cut}")),
    }
}

/// Write one frame, the length and the payload in one vectored write.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    hqr_tile::io::write_frame(w, payload).map_err(|e| net_error(e, "frame write", Duration::ZERO))
}

/// Write `list` as one frame, its borrowed parts handed to the writer
/// uncopied.
pub(crate) fn write_list(w: &mut impl Write, list: &SectionList<'_>) -> Result<(), NetError> {
    list.write_frame(w).map_err(|e| net_error(e, "frame write", Duration::ZERO))
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

/// [`read_frame`] into `buf`, which a connection keeps across frames.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    what: &str,
    deadline: Duration,
) -> Result<(), NetError> {
    match hqr_tile::io::read_frame_into(r, buf) {
        Ok(true) => Ok(()),
        Ok(false) => Err(NetError::Io(format!("{what}: connection closed"))),
        Err(e) => Err(net_error(e, what, deadline)),
    }
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
                "cut at {cut}: expected Io(connection closed), got {err}"
            );
        }
    }

    #[test]
    fn a_timed_out_read_is_a_timeout() {
        struct Late;
        impl Read for Late {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let err = read_frame(&mut Late, "a reply", Duration::from_millis(7)).unwrap_err();
        assert!(matches!(err, NetError::Timeout { after, .. } if after.as_millis() == 7), "{err}");
    }

    #[test]
    fn a_writer_that_takes_nothing_is_a_typed_error() {
        struct Stuck;
        impl Write for Stuck {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Stuck, b"payload").unwrap_err();
        assert!(matches!(&err, NetError::Io(m) if m.contains("frame write")), "{err}");
    }
}
