//! Transports: line-delimited JSON over stdio or a TCP socket.
//!
//! Both transports share the same contract: one request per line in, one
//! response per line out, connection-order within a connection, no framing
//! beyond `\n`. The TCP transport serves each connection on its own thread
//! over one shared [`Router`] — which is the point: every connection's
//! reads resolve against the workspace's published snapshots, so a merge
//! on one connection never blocks a walk on another.

use crate::service::Router;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Serves requests from `input` to `output` until EOF. Returns the number
/// of requests served.
pub(crate) fn serve_lines(
    router: &Router,
    input: impl std::io::Read,
    mut output: impl Write,
) -> std::io::Result<u64> {
    let reader = BufReader::new(input);
    let mut served = 0u64;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = router.handle_text(&line);
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        served += 1;
    }
    Ok(served)
}

/// Serves stdin→stdout until EOF.
pub fn serve_stdio(router: &Router) -> std::io::Result<u64> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_lines(router, stdin.lock(), stdout.lock())
}

/// Binds `addr` and serves each connection on its own thread. Blocks
/// forever (the daemon's main loop); panics in connection threads are
/// contained per connection.
pub fn serve_tcp(router: Arc<Router>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("mlcask_server listening on {}", listener.local_addr()?);
    for stream in listener.incoming() {
        match stream {
            Ok(conn) => {
                let router = Arc::clone(&router);
                std::thread::spawn(move || {
                    let _ = serve_connection(&router, conn);
                });
            }
            Err(e) => eprintln!("accept failed: {e}"),
        }
    }
    Ok(())
}

fn serve_connection(router: &Router, conn: TcpStream) -> std::io::Result<u64> {
    let reader = conn.try_clone()?;
    serve_lines(router, reader, conn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::AdmissionControl;
    use crate::service::{Router, ServerOptions};
    use mlcask_pipeline::parallel::ParallelismPolicy;

    fn test_router() -> Router {
        Router::in_memory(
            mlcask_workloads::readmission::build(),
            ServerOptions {
                parallelism: ParallelismPolicy::Sequential,
                coarse_lock: false,
                admission: AdmissionControl::unlimited(),
            },
        )
    }

    #[test]
    fn serve_lines_round_trips() {
        let router = test_router();
        let input = b"{\"id\":1,\"method\":\"ping\"}\n\n{\"id\":2,\"method\":\"nope\",\"params\":{\"session\":1}}\n".to_vec();
        let mut output = Vec::new();
        let served = serve_lines(&router, &input[..], &mut output).unwrap();
        assert_eq!(served, 2, "blank lines are skipped");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("pong"), "{}", lines[0]);
        assert!(lines[1].contains("-32000"), "{}", lines[1]);
    }

    #[test]
    fn tcp_serves_concurrent_connections() {
        let router = Arc::new(test_router());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                for conn in listener.incoming().flatten() {
                    let router = Arc::clone(&router);
                    std::thread::spawn(move || {
                        let _ = serve_connection(&router, conn);
                    });
                }
            });
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || {
                let conn = TcpStream::connect(addr).unwrap();
                let mut writer = conn.try_clone().unwrap();
                let mut reader = BufReader::new(conn);
                writer
                    .write_all(b"{\"id\":9,\"method\":\"ping\"}\n")
                    .unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("pong"), "{line}");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
