//! The benchmark's TCP client: a blocking request/response connection for
//! set-up probes and quiescent phases, and the open-loop load generator.
//!
//! Client hygiene: every socket sets `TCP_NODELAY` and every request line
//! goes out in a single `write`, so any stall that remains is the server's.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until `stream` is readable or `timeout` passes. `ppoll` sleeps on a
/// high-resolution timer; a socket read timeout would round the wait up to
/// the kernel tick and make the generator send late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    const POLLIN: i16 = 1;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}

/// One blocking NDJSON connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with `TCP_NODELAY`.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Self { stream, buf: Vec::new() })
    }

    /// Send one line (one write) and wait for its response line.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)?;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let line = std::mem::replace(&mut self.buf, rest);
                return Ok(String::from_utf8_lossy(&line[..pos]).into_owned());
            }
            let mut chunk = [0u8; 64 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// What kind of request a scheduled line is (latencies are summarised per
/// kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A single `jra`.
    Jra,
    /// A `batch` of `jra` entries.
    Batch,
    /// A single-update `update`.
    Update,
}

/// One scheduled request of an open-loop phase.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Due time, seconds after the phase starts.
    pub due: f64,
    /// The request line (no trailing newline).
    pub line: String,
    /// Its kind.
    pub kind: Kind,
    /// The connection it goes out on (taken modulo the connection count).
    pub conn: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Due time, seconds after the phase start.
    pub due: f64,
    /// When it was written, seconds after the phase start.
    pub sent: f64,
    /// When its response line arrived, if it did.
    pub recv: Option<f64>,
    /// The response line, if any.
    pub response: Option<String>,
}

impl Done {
    /// Latency from the due time (not the send time) in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv.map(|r| (r - self.due) * 1e3)
    }

    /// How late the generator wrote it, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Drive `requests` open-loop against `addr`: each request is written on
/// its connection at its due time whether or not earlier requests have
/// been answered. One thread per connection both sends and receives
/// (responses on a connection come back in request order), so the
/// generator uses `conns` threads and `conns` sockets. Requests still
/// unanswered `drain` after the last due time count as lost.
pub fn open_loop(
    addr: &str,
    requests: &[Scheduled],
    conns: usize,
    drain: Duration,
) -> io::Result<Vec<Done>> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    // A common start a little ahead, so every thread is ready at t = 0.
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Vec<(usize, Done)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<(usize, &Scheduled)> =
                    requests.iter().enumerate().filter(|(_, s)| s.conn % conns == c).collect();
                scope.spawn(move || drive(stream, &mine, start, drain))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut all: Vec<(usize, Done)> = results.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, d)| d).collect())
}

fn since(start: Instant) -> f64 {
    Instant::now().saturating_duration_since(start).as_secs_f64()
        - start.saturating_duration_since(Instant::now()).as_secs_f64()
}

/// One connection's send/receive loop.
fn drive(
    mut stream: TcpStream,
    mine: &[(usize, &Scheduled)],
    start: Instant,
    drain: Duration,
) -> Vec<(usize, Done)> {
    let mut done: Vec<(usize, Done)> = mine
        .iter()
        .map(|&(i, s)| (i, Done { due: s.due, sent: f64::NAN, recv: None, response: None }))
        .collect();
    let last_due = mine.last().map_or(0.0, |(_, s)| s.due);
    let give_up = last_due + drain.as_secs_f64();
    let mut next = 0;
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut open = true;
    loop {
        let now = since(start);
        if next < mine.len() && mine[next].1.due <= now {
            let mut bytes = Vec::with_capacity(mine[next].1.line.len() + 1);
            bytes.extend_from_slice(mine[next].1.line.as_bytes());
            bytes.push(b'\n');
            done[next].1.sent = since(start);
            if open && stream.write_all(&bytes).is_ok() {
                outstanding.push_back(next);
            }
            next += 1;
            continue;
        }
        if next == mine.len() && (outstanding.is_empty() || !open || now >= give_up) {
            break;
        }
        if !open {
            // The server closed on us: the rest are sent nowhere.
            std::thread::sleep(Duration::from_secs_f64(
                (mine.get(next).map_or(now, |(_, s)| s.due) - now).max(0.0),
            ));
            continue;
        }
        let wake = if next < mine.len() { mine[next].1.due } else { give_up };
        if !wait_readable(&stream, Duration::from_secs_f64((wake - now).max(0.0))) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => open = false,
            Ok(n) => {
                let at = since(start);
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let rest = buf.split_off(pos + 1);
                    let line = std::mem::replace(&mut buf, rest);
                    if let Some(k) = outstanding.pop_front() {
                        done[k].1.recv = Some(at);
                        done[k].1.response =
                            Some(String::from_utf8_lossy(&line[..pos]).into_owned());
                    }
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => open = false,
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A server that answers each line in order, sleeping `stall` before
    /// the first answer only.
    fn stalling_server(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (socket, _) = listener.accept().unwrap();
            let mut out = socket.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(socket).lines() {
                let Ok(line) = line else { break };
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                if out.write_all(format!("{line}\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_due_time_under_a_stall() {
        let (addr, server) = stalling_server(Duration::from_millis(300));
        let requests: Vec<Scheduled> = (0..5)
            .map(|i| Scheduled {
                due: 0.05 * i as f64,
                line: format!("{{\"i\":{i}}}"),
                kind: Kind::Jra,
                conn: 0,
            })
            .collect();
        let done = open_loop(&addr, &requests, 1, Duration::from_secs(5)).unwrap();
        drop(server);
        assert_eq!(done.len(), 5);
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.response.as_deref(), Some(format!("{{\"i\":{i}}}").as_str()));
            // Sent on schedule: the stalled first answer does not hold back
            // later sends (open loop).
            assert!(d.lag_ms() < 40.0, "request {i} sent {} ms late", d.lag_ms());
            // Every request queued behind the stall waits for it, and that
            // wait counts from when the request was due.
            let stall_left = 300.0 - 50.0 * i as f64;
            let latency = d.latency_ms().unwrap();
            assert!(latency >= stall_left - 5.0, "request {i}: {latency} ms < {stall_left} ms");
        }
    }

    #[test]
    fn unanswered_requests_are_lost_not_hung() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept and never answer.
        let holder = std::thread::spawn(move || {
            let (socket, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(600));
            drop(socket);
        });
        let requests =
            vec![Scheduled { due: 0.0, line: "{}".into(), kind: Kind::Update, conn: 0 }; 3];
        let started = Instant::now();
        let done = open_loop(&addr, &requests, 1, Duration::from_millis(200)).unwrap();
        assert!(started.elapsed() < Duration::from_millis(550));
        assert!(done.iter().all(|d| d.recv.is_none()));
        holder.join().unwrap();
    }
}
