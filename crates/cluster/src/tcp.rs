//! Real socket transport: the cluster protocol over TCP.
//!
//! The wire format is the **same JSON encoding** [`WireCodec::Json`]
//! exercises in-process — [`NodeMsg`]/[`NodeReply`] through the
//! workspace serde shim — framed with a 4-byte big-endian length prefix.
//! Because both transports speak identical frames, every serving test
//! that passes in-process passes over loopback TCP unchanged; the socket
//! transport changes *where* bytes go, not *what* they say.
//!
//! Two halves:
//!
//! * [`TcpNodeServer`] — wraps one [`ClusterNode`] behind a listener:
//!   one accept loop, one thread per connection, each connection a
//!   sequential request/reply stream (the client pools connections for
//!   parallelism instead of multiplexing one).
//! * [`TcpTransport`] — the client side: implements [`Transport`] over a
//!   per-peer connection pool with connect/read/write timeouts. Socket
//!   failures surface as [`TransportError::Io`] — transient, so the
//!   retry layer treats a refused connect like a dropped frame.
//!
//! [`WireCodec::Json`]: crate::WireCodec::Json

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::message::{NodeMsg, NodeReply};
use crate::node::ClusterNode;
use crate::transport::{Transport, TransportError};

/// Refuse frames larger than this (a corrupt length prefix must fail
/// loudly, not allocate gigabytes).
const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Socket timeouts for the client side of the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpTimeouts {
    /// Ceiling on establishing a connection to a peer.
    pub connect: Duration,
    /// Ceiling on waiting for a reply frame.
    pub read: Duration,
    /// Ceiling on pushing a request frame out.
    pub write: Duration,
}

impl Default for TcpTimeouts {
    fn default() -> Self {
        TcpTimeouts {
            connect: Duration::from_secs(2),
            read: Duration::from_secs(30),
            write: Duration::from_secs(5),
        }
    }
}

// ---- framing ---------------------------------------------------------

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "frame exceeds u32 length")
    })?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// The most a frame's payload buffer reserves before its bytes arrive:
/// past this it grows only with bytes actually read, so a hostile length
/// prefix costs the reader no more memory than the peer really sends.
const FRAME_PREALLOC: usize = 64 * 1024;

fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = Vec::with_capacity((len as usize).min(FRAME_PREALLOC));
    stream
        .by_ref()
        .take(u64::from(len))
        .read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame truncated at {} of {len} bytes", payload.len()),
        ));
    }
    Ok(payload)
}

// ---- server ----------------------------------------------------------

/// One cluster node served over a loopback/LAN TCP listener.
///
/// Dropping the server stops the accept loop; connection threads exit
/// when their peers disconnect (the pool is dropped client-side).
pub struct TcpNodeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Clones of every accepted stream, so dropping the server can sever
    /// live connections (fail-stop semantics: a crashed server's clients
    /// must observe errors, not a half-open socket).
    conns: Arc<Mutex<Vec<TcpStream>>>,
    node: Arc<ClusterNode>,
}

impl TcpNodeServer {
    /// Serve `node` on an OS-assigned loopback port.
    pub fn spawn(node: Arc<ClusterNode>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let node = Arc::clone(&node);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if let Ok(clone) = stream.try_clone() {
                        conns.lock().push(clone);
                    }
                    let node = Arc::clone(&node);
                    std::thread::spawn(move || serve_connection(stream, &node));
                }
            })
        };
        Ok(TcpNodeServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
            node,
        })
    }

    /// The address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node behind this listener.
    pub fn node(&self) -> &Arc<ClusterNode> {
        &self.node
    }
}

impl Drop for TcpNodeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Sever live connections so clients observe the crash.
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One connection: a sequential stream of length-prefixed request
/// frames, each answered with one reply frame. Exits on EOF or any
/// socket/codec error (the client reconnects).
fn serve_connection(mut stream: TcpStream, node: &ClusterNode) {
    let _ = stream.set_nodelay(true);
    loop {
        let Ok(payload) = read_frame(&mut stream) else {
            return;
        };
        let reply = match std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| serde_json::from_str::<NodeMsg>(text).ok())
        {
            Some(msg) => node.handle(msg),
            None => NodeReply::Failed {
                reason: "undecodable request frame".to_string(),
            },
        };
        let Ok(encoded) = serde_json::to_string(&reply) else {
            return;
        };
        if write_frame(&mut stream, encoded.as_bytes()).is_err() {
            return;
        }
    }
}

// ---- client ----------------------------------------------------------

/// The client half: [`Transport`] over per-peer pooled TCP connections.
///
/// Each send checks a connection out of the peer's pool (dialing a fresh
/// one when empty), performs one request/reply exchange, and returns the
/// connection on success. A failed exchange *discards* the connection —
/// and, if the failure happened on a **pooled** (possibly idle-stale)
/// connection before any reply bytes arrived, retries once on a fresh
/// dial so a server restart does not fail the first send after it.
pub struct TcpTransport {
    peers: Vec<SocketAddr>,
    pools: Vec<Mutex<Vec<TcpStream>>>,
    timeouts: TcpTimeouts,
}

impl TcpTransport {
    /// A transport dialing `peers` (node index = position) with default
    /// timeouts.
    pub fn new(peers: Vec<SocketAddr>) -> Self {
        TcpTransport::with_timeouts(peers, TcpTimeouts::default())
    }

    /// Same, with explicit socket timeouts.
    pub fn with_timeouts(peers: Vec<SocketAddr>, timeouts: TcpTimeouts) -> Self {
        let pools = peers.iter().map(|_| Mutex::new(Vec::new())).collect();
        TcpTransport {
            peers,
            pools,
            timeouts,
        }
    }

    fn dial(&self, addr: &SocketAddr) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(addr, self.timeouts.connect)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeouts.read))?;
        stream.set_write_timeout(Some(self.timeouts.write))?;
        Ok(stream)
    }

    fn exchange(stream: &mut TcpStream, request: &[u8]) -> std::io::Result<Vec<u8>> {
        write_frame(stream, request)?;
        read_frame(stream)
    }
}

impl Transport for TcpTransport {
    fn send(&self, node: usize, msg: NodeMsg) -> Result<NodeReply, TransportError> {
        let addr = self
            .peers
            .get(node)
            .ok_or(TransportError::UnknownNode { node })?;
        let request =
            serde_json::to_string(&msg).map_err(|e| TransportError::Codec(e.to_string()))?;

        let pooled = self.pools[node].lock().pop();
        let from_pool = pooled.is_some();
        let mut stream = match pooled {
            Some(s) => s,
            None => self
                .dial(addr)
                .map_err(|e| TransportError::Io(format!("connect {addr}: {e}")))?,
        };

        let reply_bytes = match Self::exchange(&mut stream, request.as_bytes()) {
            Ok(bytes) => bytes,
            Err(_) if from_pool => {
                // The idle pooled connection may have been closed under
                // us; one fresh dial before declaring the peer down.
                drop(stream);
                let mut fresh = self
                    .dial(addr)
                    .map_err(|e| TransportError::Io(format!("connect {addr}: {e}")))?;
                let bytes = Self::exchange(&mut fresh, request.as_bytes())
                    .map_err(|e| TransportError::Io(format!("exchange with {addr}: {e}")))?;
                stream = fresh;
                bytes
            }
            Err(e) => {
                return Err(TransportError::Io(format!("exchange with {addr}: {e}")));
            }
        };

        let text = std::str::from_utf8(&reply_bytes)
            .map_err(|e| TransportError::Codec(format!("reply not utf-8: {e}")))?;
        let reply: NodeReply =
            serde_json::from_str(text).map_err(|e| TransportError::Codec(e.to_string()))?;
        self.pools[node].lock().push(stream);
        Ok(reply)
    }

    fn node_count(&self) -> usize {
        self.peers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_exec::ExecConfig;

    fn exec_cfg() -> ExecConfig {
        ExecConfig {
            workers: 1,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn read_frame_reads_before_it_allocates() {
        // A header claiming the cap, then 3 bytes and EOF: an error, with
        // no cap-sized buffer reserved on the header's word.
        let mut wire = MAX_FRAME.to_be_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // Over the cap is refused before any payload is read.
        let err = read_frame(&mut (MAX_FRAME + 1).to_be_bytes().as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A whole frame still round-trips.
        let mut wire = 5u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"hello");
        assert_eq!(read_frame(&mut wire.as_slice()).unwrap(), b"hello");
    }

    #[test]
    fn status_roundtrips_over_loopback() {
        let server = TcpNodeServer::spawn(Arc::new(ClusterNode::new(0, exec_cfg()))).unwrap();
        let transport = TcpTransport::new(vec![server.addr()]);
        let reply = transport.send(0, NodeMsg::Status).unwrap();
        let NodeReply::Status(status) = reply else {
            panic!("expected status reply, got {reply:?}");
        };
        assert!(!status.attached);

        // Second send reuses the pooled connection.
        assert!(transport.send(0, NodeMsg::Status).is_ok());
        assert_eq!(transport.pools[0].lock().len(), 1);
    }

    #[test]
    fn dead_peer_is_an_io_error() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let transport = TcpTransport::with_timeouts(
            vec![addr],
            TcpTimeouts {
                connect: Duration::from_millis(300),
                ..TcpTimeouts::default()
            },
        );
        match transport.send(0, NodeMsg::Status) {
            Err(TransportError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn pooled_connection_survives_server_restart_via_fresh_dial() {
        let node = Arc::new(ClusterNode::new(0, exec_cfg()));
        let server = TcpNodeServer::spawn(Arc::clone(&node)).unwrap();
        let addr = server.addr();
        let transport = TcpTransport::new(vec![addr]);
        assert!(transport.send(0, NodeMsg::Status).is_ok());

        // Kill the server; the pooled connection is now dead.
        drop(server);
        assert!(matches!(
            transport.send(0, NodeMsg::Status),
            Err(TransportError::Io(_))
        ));
    }
}
