//! A minimal keep-alive HTTP/1.1 client for `qelectd`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            addr,
        })
    }

    /// One request/response exchange: `(status, body)`. A failed
    /// exchange reconnects, so the next call starts on a fresh
    /// connection; the failure itself is returned, never retried.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            *self = Client::connect(self.addr)?;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: qelectd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body.as_bytes());
        self.writer
            .write_all(&msg)
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        let code = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad content-length {value:?}"))?;
                }
            }
        }
        let mut buf = vec![0u8; length];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("recv body: {e}"))?;
        let body = String::from_utf8(buf).map_err(|_| "body is not UTF-8".to_string())?;
        Ok((code, body))
    }
}
