//! The load generator's HTTP/1.1 client: one connection, kept alive or
//! opened fresh per request (`Connection: close`).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnMode {
    KeepAlive,
    Close,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    mode: ConnMode,
    conn: Option<BufReader<TcpStream>>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn new(addr: SocketAddr, mode: ConnMode) -> Client {
        Client {
            addr,
            mode,
            conn: None,
        }
    }

    /// Sends one request and reads its response. A failed exchange drops
    /// the connection; the next call dials again.
    pub fn call(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<Response> {
        let result = self.exchange(method, path, body);
        if result.is_err() || self.mode == ConnMode::Close {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("dialled above");
        let connection = match self.mode {
            ConnMode::KeepAlive => "keep-alive",
            ConnMode::Close => "close",
        };
        let payload = body.unwrap_or(b"");
        let mut req =
            format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {connection}\r\n");
        if body.is_some() {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                payload.len()
            ));
        }
        req.push_str("\r\n");
        let mut wire = req.into_bytes();
        wire.extend_from_slice(payload);
        conn.get_mut().write_all(&wire)?;
        read_response(conn)
    }
}

fn read_response(r: &mut BufReader<TcpStream>) -> io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a response"));
    }
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length: Option<usize> = None;
    let mut chunked = false;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("eof in response head"));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                length = Some(v.parse().map_err(|_| bad("bad content-length"))?);
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                chunked = v.contains("chunked");
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            r.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim_end().split(';').next().unwrap_or(""), 16)
                .map_err(|_| bad("bad chunk size"))?;
            let start = body.len();
            body.resize(start + size, 0);
            r.read_exact(&mut body[start..])?;
            line.clear();
            r.read_line(&mut line)?;
            if size == 0 {
                break;
            }
        }
    } else {
        let n = length.ok_or_else(|| bad("response without a length"))?;
        body.resize(n, 0);
        r.read_exact(&mut body)?;
    }
    Ok(Response { status, body })
}
