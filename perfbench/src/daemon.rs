//! The daemon under test, run as a child process (`bisched_cli serve` on
//! an ephemeral port, default options otherwise), and the client
//! connections that drive it.

use bisched_service::{Response, StatsData};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `bisched_cli serve` child. Dropping it kills and reaps the
/// process; [`Daemon::shutdown`] stops it gracefully.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and waits for its "listening on <addr>" line.
    pub fn spawn(cli: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    /// The daemon's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
    }

    /// Sends the `shutdown` verb and waits for the process to exit
    /// (killing it after ten seconds).
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .connect()
            .and_then(|mut c| c.call(b"{\"verb\":\"shutdown\"}\n"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return sent.map(|_| ()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One JSON-lines connection: a request line out, a response line back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // A wedged daemon becomes a transport error, not a hung benchmark.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one `\n`-terminated line and returns the response line
    /// (newline included).
    pub fn call(&mut self, line: &[u8]) -> Result<Vec<u8>, String> {
        self.writer
            .write_all(line)
            .map_err(|e| format!("write: {e}"))?;
        let mut response = Vec::with_capacity(512);
        match self.reader.read_until(b'\n', &mut response) {
            Ok(n) if n > 0 && response.ends_with(b"\n") => Ok(response),
            Ok(_) => Err("connection closed mid-response".into()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The daemon's `stats` verb.
    pub fn stats(&mut self) -> Result<StatsData, String> {
        let raw = self.call(b"{\"verb\":\"stats\"}\n")?;
        let resp: Response = serde_json::from_str(String::from_utf8_lossy(&raw).trim_end())
            .map_err(|e| format!("stats response: {e}"))?;
        resp.stats
            .ok_or_else(|| format!("stats response without stats: {:?}", resp.error))
    }
}
