//! Reference implementation for the differential codec tests: the
//! `Vec<String>` name, name reader and compressing encoder that
//! `dns::name` and `dns::message` used before names went wire-form,
//! kept verbatim in behaviour. The decoder's record layer is the same
//! code as the library's, wired to the reference name reader; names
//! leave it through `Name::from_labels`.
//!
//! Known defect, kept on purpose: the encoder keys compression on the
//! dotted suffix string, so a label containing `.` collides with a label
//! boundary (`["a.b"]` vs `["a", "b"]`). Callers comparing encodings must
//! not generate dotted labels.

use core::fmt;
use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};
use dns::error::DnsError;
use dns::message::{Header, Message, Question, Rcode};
use dns::name::Name;
use dns::record::{RData, Record, RecordType};
use netsim::fasthash::FastMap;

/// The former `dns::name::Name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OracleName {
    pub labels: Vec<String>,
}

impl OracleName {
    pub fn from_labels<I, S>(labels: I) -> Result<Self, DnsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = Vec::new();
        let mut wire_len = 1; // root byte
        for label in labels {
            let label = label.as_ref();
            if label.is_empty() || label.len() > 63 {
                return Err(DnsError::BadName { reason: "label length out of range" });
            }
            wire_len += 1 + label.len();
            if wire_len > 255 {
                return Err(DnsError::BadName { reason: "name exceeds 255 bytes" });
            }
            out.push(label.to_ascii_lowercase());
        }
        Ok(OracleName { labels: out })
    }

    /// The reference view of a library name (through its labels).
    pub fn of(name: &Name) -> OracleName {
        OracleName { labels: name.labels().map(str::to_owned).collect() }
    }

    /// The library name with these labels.
    pub fn to_name(&self) -> Name {
        Name::from_labels(&self.labels).expect("reference names are valid")
    }
}

impl fmt::Display for OracleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        write!(f, "{}", self.labels.join("."))
    }
}

/// The former `dns::message::read_name_at`.
pub fn read_name_at(data: &[u8], mut pos: usize) -> Result<(OracleName, usize), DnsError> {
    let mut labels: Vec<String> = Vec::new();
    let mut next_after = None;
    let mut hops = 0;
    loop {
        let len = *data.get(pos).ok_or(DnsError::Truncated { context: "name" })?;
        if len & 0xC0 == 0xC0 {
            let lo = *data.get(pos + 1).ok_or(DnsError::Truncated { context: "pointer" })?;
            let target = usize::from(u16::from_be_bytes([len & 0x3F, lo]));
            if next_after.is_none() {
                next_after = Some(pos + 2);
            }
            if target >= pos && hops == 0 {
                return Err(DnsError::BadPointer); // forward pointer
            }
            hops += 1;
            if hops > 32 {
                return Err(DnsError::BadPointer);
            }
            pos = target;
        } else if len == 0 {
            pos += 1;
            break;
        } else {
            let len = usize::from(len);
            if len > 63 {
                return Err(DnsError::BadName { reason: "label length > 63" });
            }
            if pos + 1 + len > data.len() {
                return Err(DnsError::Truncated { context: "label" });
            }
            labels.push(String::from_utf8_lossy(&data[pos + 1..pos + 1 + len]).into_owned());
            pos += 1 + len;
        }
    }
    let name = OracleName::from_labels(labels)?;
    Ok((name, next_after.unwrap_or(pos)))
}

/// The former `Message::encode`, with the string-keyed compression table.
pub fn encode(msg: &Message) -> Result<Bytes, DnsError> {
    let mut enc = Encoder { buf: BytesMut::with_capacity(512), offsets: FastMap::default() };
    enc.buf.put_u16(msg.header.id);
    let mut flags: u16 = 0;
    if msg.header.qr {
        flags |= 0x8000;
    }
    flags |= u16::from(msg.header.opcode & 0xF) << 11;
    if msg.header.aa {
        flags |= 0x0400;
    }
    if msg.header.tc {
        flags |= 0x0200;
    }
    if msg.header.rd {
        flags |= 0x0100;
    }
    if msg.header.ra {
        flags |= 0x0080;
    }
    if msg.header.ad {
        flags |= 0x0020;
    }
    flags |= u16::from(msg.header.rcode.code());
    enc.buf.put_u16(flags);
    enc.buf.put_u16(msg.questions.len() as u16);
    enc.buf.put_u16(msg.answers.len() as u16);
    enc.buf.put_u16(msg.authorities.len() as u16);
    enc.buf.put_u16(msg.additionals.len() as u16);
    for q in &msg.questions {
        enc.put_name(&OracleName::of(&q.name));
        enc.buf.put_u16(q.qtype.code());
        enc.buf.put_u16(1);
    }
    for record in msg.answers.iter().chain(&msg.authorities).chain(&msg.additionals) {
        enc.put_record(record)?;
    }
    if enc.buf.len() > usize::from(u16::MAX) {
        return Err(DnsError::Oversize { len: enc.buf.len() });
    }
    Ok(enc.buf.freeze())
}

struct Encoder {
    buf: BytesMut,
    offsets: FastMap<String, u16>,
}

impl Encoder {
    fn put_name(&mut self, name: &OracleName) {
        let labels = &name.labels;
        for i in 0..labels.len() {
            let suffix = labels[i..].join(".");
            if let Some(&off) = self.offsets.get(&suffix) {
                self.buf.put_u16(0xC000 | off);
                return;
            }
            if self.buf.len() < 0x3FFF {
                self.offsets.insert(suffix, self.buf.len() as u16);
            }
            let label = &labels[i];
            self.buf.put_u8(label.len() as u8);
            self.buf.put_slice(label.as_bytes());
        }
        self.buf.put_u8(0);
    }

    fn put_record(&mut self, record: &Record) -> Result<(), DnsError> {
        self.put_name(&OracleName::of(&record.name));
        self.buf.put_u16(record.rtype().code());
        match record.data {
            RData::Opt { udp_payload_size } => self.buf.put_u16(udp_payload_size),
            _ => self.buf.put_u16(1),
        }
        self.buf.put_u32(record.ttl);
        let rdlen_pos = self.buf.len();
        self.buf.put_u16(0);
        match &record.data {
            RData::A(addr) => self.buf.put_slice(&addr.octets()),
            RData::Ns(target) | RData::Cname(target) => self.put_name(&OracleName::of(target)),
            RData::Soa { mname, serial, minimum } => {
                let mname = OracleName::of(mname);
                self.put_name(&mname);
                self.put_name(&mname);
                self.buf.put_u32(*serial);
                self.buf.put_u32(3600);
                self.buf.put_u32(600);
                self.buf.put_u32(86_400);
                self.buf.put_u32(*minimum);
            }
            RData::Txt(text) => {
                for chunk in text.as_bytes().chunks(255) {
                    self.buf.put_u8(chunk.len() as u8);
                    self.buf.put_slice(chunk);
                }
            }
            RData::Opt { .. } => {}
            RData::Rrsig { type_covered, signer, signature } => {
                self.buf.put_u16(type_covered.code());
                for label in &OracleName::of(signer).labels {
                    self.buf.put_u8(label.len() as u8);
                    self.buf.put_slice(label.as_bytes());
                }
                self.buf.put_u8(0);
                self.buf.put_u64(*signature);
            }
            RData::Dnskey { key_tag } => self.buf.put_u16(*key_tag),
            RData::Unknown { data, .. } => self.buf.put_slice(data),
        }
        let rdlen = self.buf.len() - rdlen_pos - 2;
        if rdlen > usize::from(u16::MAX) {
            return Err(DnsError::Oversize { len: rdlen });
        }
        self.buf[rdlen_pos..rdlen_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
        Ok(())
    }
}

/// The former `Message::decode`, reading names with [`read_name_at`].
pub fn decode(data: &[u8]) -> Result<Message, DnsError> {
    let mut dec = Decoder { data, pos: 0 };
    if data.len() < 12 {
        return Err(DnsError::Truncated { context: "header" });
    }
    let id = dec.u16()?;
    let flags = dec.u16()?;
    let qdcount = dec.u16()?;
    let ancount = dec.u16()?;
    let nscount = dec.u16()?;
    let arcount = dec.u16()?;
    let header = Header {
        id,
        qr: flags & 0x8000 != 0,
        opcode: ((flags >> 11) & 0xF) as u8,
        aa: flags & 0x0400 != 0,
        tc: flags & 0x0200 != 0,
        rd: flags & 0x0100 != 0,
        ra: flags & 0x0080 != 0,
        ad: flags & 0x0020 != 0,
        rcode: Rcode::from_code(flags as u8),
    };
    let mut questions = Vec::with_capacity(usize::from(qdcount));
    for _ in 0..qdcount {
        let name = dec.read_name()?;
        let qtype = RecordType::from_code(dec.u16()?);
        let _class = dec.u16()?;
        questions.push(Question { name, qtype });
    }
    let read_section = |dec: &mut Decoder<'_>, count: u16| -> Result<Vec<Record>, DnsError> {
        let mut out = Vec::with_capacity(usize::from(count));
        for _ in 0..count {
            out.push(dec.read_record()?);
        }
        Ok(out)
    };
    let answers = read_section(&mut dec, ancount)?;
    let authorities = read_section(&mut dec, nscount)?;
    let additionals = read_section(&mut dec, arcount)?;
    Ok(Message { header, questions, answers, authorities, additionals })
}

fn name_at(data: &[u8], pos: usize) -> Result<(Name, usize), DnsError> {
    read_name_at(data, pos).map(|(name, next)| (name.to_name(), next))
}

struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn u8(&mut self) -> Result<u8, DnsError> {
        let b = *self.data.get(self.pos).ok_or(DnsError::Truncated { context: "u8" })?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DnsError> {
        let hi = self.u8()?;
        let lo = self.u8()?;
        Ok(u16::from_be_bytes([hi, lo]))
    }

    fn u32(&mut self) -> Result<u32, DnsError> {
        let hi = self.u16()?;
        let lo = self.u16()?;
        Ok((u32::from(hi) << 16) | u32::from(lo))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DnsError> {
        if self.pos + n > self.data.len() {
            return Err(DnsError::Truncated { context: "bytes" });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn read_name(&mut self) -> Result<Name, DnsError> {
        let (name, next) = name_at(self.data, self.pos)?;
        self.pos = next;
        Ok(name)
    }

    fn read_record(&mut self) -> Result<Record, DnsError> {
        let name = self.read_name()?;
        let rtype = RecordType::from_code(self.u16()?);
        let class_or_size = self.u16()?;
        let ttl = self.u32()?;
        let rdlen = usize::from(self.u16()?);
        let rdata_start = self.pos;
        if rdata_start + rdlen > self.data.len() {
            return Err(DnsError::Truncated { context: "rdata" });
        }
        let data = match rtype {
            RecordType::A => {
                if rdlen != 4 {
                    return Err(DnsError::BadField { field: "A rdlength" });
                }
                let b = self.take(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RecordType::Ns | RecordType::Cname => {
                let (target, next) = name_at(self.data, rdata_start)?;
                if next > rdata_start + rdlen {
                    return Err(DnsError::Truncated { context: "name rdata" });
                }
                self.pos = rdata_start + rdlen;
                if rtype == RecordType::Ns {
                    RData::Ns(target)
                } else {
                    RData::Cname(target)
                }
            }
            RecordType::Soa => {
                let (mname, next) = name_at(self.data, rdata_start)?;
                let (_rname, next) = name_at(self.data, next)?;
                let mut tail = Decoder { data: self.data, pos: next };
                let serial = tail.u32()?;
                let _refresh = tail.u32()?;
                let _retry = tail.u32()?;
                let _expire = tail.u32()?;
                let minimum = tail.u32()?;
                self.pos = rdata_start + rdlen;
                RData::Soa { mname, serial, minimum }
            }
            RecordType::Txt => {
                let raw = self.take(rdlen)?;
                let mut text = String::new();
                let mut i = 0;
                while i < raw.len() {
                    let n = usize::from(raw[i]);
                    i += 1;
                    if i + n > raw.len() {
                        return Err(DnsError::Truncated { context: "txt" });
                    }
                    text.push_str(&String::from_utf8_lossy(&raw[i..i + n]));
                    i += n;
                }
                RData::Txt(text)
            }
            RecordType::Opt => {
                self.take(rdlen)?;
                RData::Opt { udp_payload_size: class_or_size }
            }
            RecordType::Rrsig => {
                let mut tail = Decoder { data: self.data, pos: rdata_start };
                let type_covered = RecordType::from_code(tail.u16()?);
                let (signer, next) = name_at(self.data, tail.pos)?;
                let mut sig_dec = Decoder { data: self.data, pos: next };
                let hi = sig_dec.u32()?;
                let lo = sig_dec.u32()?;
                self.pos = rdata_start + rdlen;
                RData::Rrsig {
                    type_covered,
                    signer,
                    signature: (u64::from(hi) << 32) | u64::from(lo),
                }
            }
            RecordType::Dnskey => {
                let mut tail = Decoder { data: self.data, pos: rdata_start };
                let key_tag = tail.u16()?;
                self.pos = rdata_start + rdlen;
                RData::Dnskey { key_tag }
            }
            RecordType::Unknown(code) => {
                RData::Unknown { rtype: code, data: Bytes::copy_from_slice(self.take(rdlen)?) }
            }
        };
        Ok(Record { name, ttl, data })
    }
}
