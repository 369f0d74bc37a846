//! A minimal blocking client for the wire protocol, used by
//! `bisched_cli submit`, the CI smoke test, and the end-to-end tests.
//! Speaks JSON lines by default and can negotiate the length-prefixed
//! binary framing via [`Client::upgrade_binary`].

use crate::frame;
use crate::protocol::{Request, Response, StatsData};
use bisched_model::InstanceData;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent something unparseable, or an unexpected shape.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a running service; requests are answered in order
/// on the same stream.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Whether the connection has been upgraded to binary framing.
    binary: bool,
}

impl Client {
    /// Connects to a running service (JSON-lines framing).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            binary: false,
        })
    }

    /// Whether the connection currently speaks binary frames.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Negotiates the length-prefixed binary framing (`PROTOCOL.md` §v2):
    /// sends the `upgrade` verb in the current framing and, on `ok`,
    /// switches both directions of this connection.
    pub fn upgrade_binary(&mut self) -> Result<(), ClientError> {
        let mut req = Request::verb("upgrade");
        req.frame = Some("binary".into());
        let resp = self.request(&req)?;
        if resp.status != "ok" {
            return Err(ClientError::Protocol(format!(
                "upgrade refused: {}",
                resp.error.unwrap_or_else(|| resp.status.clone())
            )));
        }
        self.binary = true;
        Ok(())
    }

    /// Sends one request and reads its response in the connection's
    /// current framing.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let msg = frame::encode_message(req, self.binary)
            .map_err(|e| ClientError::Protocol(format!("encode: {e}")))?;
        self.writer.write_all(&msg)?;
        if self.binary {
            let mut len = [0u8; 4];
            self.reader.read_exact(&mut len)?;
            let len = u32::from_le_bytes(len);
            if len > frame::MAX_FRAME_LEN {
                return Err(ClientError::Protocol(format!(
                    "response frame length {len} over limit"
                )));
            }
            let mut payload = vec![0u8; len as usize];
            self.reader.read_exact(&mut payload)?;
            let value = frame::decode_value(&payload).map_err(ClientError::Protocol)?;
            serde_json::from_value(value).map_err(|e| ClientError::Protocol(format!("decode: {e}")))
        } else {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Protocol("server closed the connection".into()));
            }
            serde_json::from_str(&line).map_err(|e| ClientError::Protocol(format!("decode: {e}")))
        }
    }

    /// Submits one instance with optional overrides already applied to
    /// `req`.
    pub fn solve(&mut self, instance: InstanceData) -> Result<Response, ClientError> {
        self.request(&Request::solve(instance))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::verb("ping"))
    }

    /// Fetches the metrics snapshot (cross-shard totals plus the
    /// per-shard breakdown).
    pub fn stats(&mut self) -> Result<StatsData, ClientError> {
        let resp = self.request(&Request::verb("stats"))?;
        resp.stats
            .ok_or_else(|| ClientError::Protocol("stats response missing payload".into()))
    }

    /// Fetches the Prometheus text exposition (the `metrics` verb).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.request(&Request::verb("metrics"))?;
        resp.metrics
            .ok_or_else(|| ClientError::Protocol("metrics response missing payload".into()))
    }

    /// Fetches the slow-request exemplars (the `trace` verb): with
    /// `shard: None` the merged all-shard view (each exemplar tagged
    /// with its shard), otherwise one shard's ring.
    pub fn trace(&mut self, shard: Option<u64>) -> Result<crate::exemplar::TraceData, ClientError> {
        let mut req = Request::verb("trace");
        req.shard = shard;
        let resp = self.request(&req)?;
        if resp.status != "ok" {
            return Err(ClientError::Protocol(
                resp.error.unwrap_or_else(|| resp.status.clone()),
            ));
        }
        resp.exemplars
            .ok_or_else(|| ClientError::Protocol("trace response missing payload".into()))
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::verb("shutdown"))
    }
}
