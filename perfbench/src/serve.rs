//! An in-process grafterd bound to a loopback port, and the framed client
//! connection the benchmark drives it with.

use std::io::{self, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use grafter_engine::{Backend, FusionOptions, OptLevel};
use grafter_obs::json::{parse, Json};
use grafter_server::proto::{render_bare, write_frame, FrameReader, Incoming, ProgramSpec};
use grafter_server::{Daemon, DaemonOptions};
use grafter_workloads::CaseStudy;

/// The spec of `case` on the configuration grafterd serves: VM tier, O2,
/// default fusion.
pub fn program_spec(case: &CaseStudy) -> ProgramSpec {
    ProgramSpec {
        source: case.source.to_string(),
        root: case.root_class.to_string(),
        passes: case.passes.iter().map(|p| (*p).to_string()).collect(),
        backend: Backend::Vm,
        opt_level: OptLevel::O2,
        fusion: FusionOptions::default(),
        args: case.args.clone(),
    }
}

/// One framed connection: a request, then exactly one response frame.
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: FrameReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends `body` and returns the response body.
    pub fn call(&mut self, body: &str) -> io::Result<String> {
        write_frame(&mut self.writer, body)?;
        loop {
            match self.reader.read_frame() {
                Ok(Incoming::Frame(body)) => return Ok(body),
                Ok(Incoming::Idle) => {}
                Ok(Incoming::Closed) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Err(e) => return Err(io::Error::other(format!("protocol error: {e:?}"))),
            }
        }
    }
}

/// Daemon-side counters from the `stats` method plus the engine pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    pub lowerings: u64,
    pub spawned: u64,
    pub hits: u64,
    pub misses: u64,
}

impl ServerStats {
    pub fn sample(client: &mut Client) -> io::Result<ServerStats> {
        let doc = parse(&client.call(&render_bare("stats"))?)
            .map_err(|e| io::Error::other(format!("unparseable stats: {}", e.msg)))?;
        let num = |path: &[&str]| -> io::Result<u64> {
            let mut cur = &doc;
            for key in path {
                cur = cur
                    .get(key)
                    .ok_or_else(|| io::Error::other(format!("stats lacks `{key}`")))?;
            }
            cur.as_num()
                .map(|n| n as u64)
                .ok_or_else(|| io::Error::other("stats value is not a number"))
        };
        Ok(ServerStats {
            lowerings: num(&["lowerings"])?,
            spawned: num(&["pool", "spawned_total"])?,
            hits: num(&["cache", "hits"])?,
            misses: num(&["cache", "misses"])?,
        })
    }

    /// `later - self`, counter by counter.
    pub fn delta(&self, later: &ServerStats) -> ServerStats {
        ServerStats {
            lowerings: later.lowerings - self.lowerings,
            spawned: later.spawned - self.spawned,
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
        }
    }
}

/// Whether a response body reports success.
pub fn is_ok(body: &str) -> bool {
    parse(body).is_ok_and(|doc| matches!(doc.get("ok"), Some(Json::Bool(true))))
}

/// A daemon serving on an ephemeral loopback port from its own thread.
pub struct Rig {
    pub addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Rig {
    pub fn start() -> io::Result<Rig> {
        let daemon = Daemon::bind("127.0.0.1:0", DaemonOptions::default())?;
        let addr = daemon.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("perfbench-grafterd".to_string())
            .spawn(move || daemon.serve(&flag))?;
        Ok(Rig {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

/// Stops accepting, lets open connections drain and joins the daemon
/// thread. An acceptor error at this point is ignored: every request was
/// already answered and checked.
impl Drop for Rig {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
