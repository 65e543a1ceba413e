//! DNS message wire codec (RFC 1035 §4) with name compression.
//!
//! Byte layout matters here: the fragmentation attack splices the *tail* of
//! a real response, so encoded messages must be stable and realistic —
//! header, question, then answer/authority/additional sections, with
//! compression pointers shrinking repeated names exactly the way real
//! servers do.
//!
//! The model reads DNS bytes through one checked walk, [`MessageView`].
//! It writes every query with [`query_bytes`] and every reply through the
//! `Encoder`, the one writer that compresses. [`Message`] is the owned
//! builder.
// simlint: hot-path — every host that reads a DNS datagram walks it here,
// every query is written here, and the resolver and the nameservers write
// their replies through the `Encoder`.

use bytes::{BufMut, Bytes, BytesMut};
use std::cell::RefCell;
use std::net::Ipv4Addr;

use crate::error::DnsError;
use crate::name::{read_name_at, skip_name_at, Name};
use crate::record::{RData, Record, RecordType};

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure (also: DNSSEC validation failure).
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Policy refusal.
    Refused,
    /// Any other code.
    Other(u8),
}

impl Rcode {
    /// Wire value (4 bits).
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(code) => code & 0xF,
        }
    }

    /// Parses a wire value.
    pub fn from_code(code: u8) -> Rcode {
        match code & 0xF {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Message header (counts are derived from the section vectors at encode
/// time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction ID — one half of the challenge-response entropy the
    /// fragmentation attack sidesteps (it lives in the first fragment).
    pub id: u16,
    /// True for responses.
    pub qr: bool,
    /// Operation code (0 = standard query).
    pub opcode: u8,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authenticated data (DNSSEC validated).
    pub ad: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// The first four wire bytes: the ID, then the flags word.
    pub(crate) fn id_and_flags(&self) -> [u8; 4] {
        let bit = |set: bool, mask: u16| if set { mask } else { 0 };
        let flags = bit(self.qr, 0x8000)
            | u16::from(self.opcode & 0xF) << 11
            | bit(self.aa, 0x0400)
            | bit(self.tc, 0x0200)
            | bit(self.rd, 0x0100)
            | bit(self.ra, 0x0080)
            | bit(self.ad, 0x0020)
            | u16::from(self.rcode.code());
        let ([id_hi, id_lo], [hi, lo]) = (self.id.to_be_bytes(), flags.to_be_bytes());
        [id_hi, id_lo, hi, lo]
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RecordType,
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Message {
    /// Header flags and ID.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (glue, OPT).
    pub additionals: Vec<Record>,
}

/// The wire bytes of a standard query for `name` and `qtype` (class IN)
/// with ID `id` and RD `rd`: the bytes the owned builder writes for that
/// query ([`Message::encode`]). Every query the model sends is written
/// here. A query's one name has nothing earlier to point at, so nothing
/// compresses, and it always fits the 16-bit length limit, so this cannot
/// fail. The buffer is of the 512-byte pool class that `Encoder::finish`
/// copies replies into.
pub fn query_bytes(id: u16, name: &Name, qtype: RecordType, rd: bool) -> Bytes {
    let mut wire = BytesMut::with_capacity(512);
    wire.put_slice(&Header { id, rd, ..Header::default() }.id_and_flags());
    // One question, no records.
    wire.put_slice(&[0, 1, 0, 0, 0, 0, 0, 0]);
    wire.put_slice(name.as_wire());
    wire.put_u8(0);
    wire.put_u16(qtype.code());
    wire.put_u16(1); // class IN
    wire.freeze()
}

impl Message {
    /// Builds a standard query, owned: for tests and benchmarks, and the
    /// reference [`query_bytes`] is checked against.
    pub fn query(id: u16, name: Name, qtype: RecordType, recursion_desired: bool) -> Message {
        Message {
            header: Header { id, rd: recursion_desired, ..Header::default() },
            // simlint: allow(hot-alloc) — the owned builder's one question;
            // the model writes its queries with `query_bytes`.
            questions: vec![Question { name, qtype }],
            ..Message::default()
        }
    }

    /// Builds an empty response skeleton echoing `query`'s ID, question and
    /// RD flag.
    pub fn response_to(query: &Message) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                qr: true,
                rd: query.header.rd,
                ..Header::default()
            },
            // simlint: allow(hot-alloc) — the owned builder echoes an owned
            // query; in-place readers build from `MessageView::questions`.
            questions: query.questions.clone(),
            ..Message::default()
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Encodes the message to wire bytes with name compression.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::Oversize`] if the result exceeds 65 535 bytes.
    pub fn encode(&self) -> Result<Bytes, DnsError> {
        self.encode_split().map(|(wire, _)| wire)
    }

    /// [`Message::encode`], plus the offset where the answer section
    /// starts.
    pub(crate) fn encode_split(&self) -> Result<(Bytes, usize), DnsError> {
        ENCODER.with(|enc| self.encode_with(&mut enc.borrow_mut()))
    }

    fn encode_with(&self, enc: &mut Encoder) -> Result<(Bytes, usize), DnsError> {
        let counts = [&self.answers, &self.authorities, &self.additionals].map(Vec::len);
        enc.start(&self.header, self.questions.len(), counts);
        for q in &self.questions {
            enc.put_question(&q.name, q.qtype);
        }
        let answers_at = enc.buf.len();
        for record in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            enc.put_record(record)?;
        }
        enc.finish().map(|wire| (wire, answers_at))
    }

    /// Decodes a message from wire bytes into an owned [`Message`], for
    /// tests and benchmarks; the model reads datagrams in place. The
    /// checked walk ([`MessageView::with_spans`]) decides what is
    /// accepted; every question and record is then built from it.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError`] on truncation, bad pointers or malformed fields.
    pub fn decode(data: &[u8]) -> Result<Message, DnsError> {
        // simlint: allow(hot-alloc) — the owned decode, off the model's path.
        let mut spans = Vec::new();
        let view = MessageView::with_spans(data, &mut spans)?;
        let build = |spans: &[RecordSpan]| {
            let mut records = Vec::with_capacity(spans.len());
            for span in spans {
                records.push(span.record(data, span.name(data)?)?);
            }
            Ok::<_, DnsError>(records)
        };
        // The spans come in section order.
        let authority = spans.partition_point(|span| span.section == Section::Answer);
        let additional = spans.partition_point(|span| span.section != Section::Additional);
        Ok(Message {
            header: view.header,
            questions: view.questions().collect(),
            answers: build(&spans[..authority])?,
            authorities: build(&spans[authority..additional])?,
            additionals: build(&spans[additional..])?,
        })
    }
}

thread_local! {
    /// The encoder [`Message::encode`] writes with, reused by every
    /// message encoded on the thread.
    static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::new());
}

/// A checked DNS message, borrowed: [`MessageView::new`] runs the one
/// checked walk, which decides what [`Message::decode`] accepts too, and
/// builds no name, record or section, so it never allocates (bar the
/// lossy copy of a non-UTF-8 label). It is how the model reads every DNS
/// datagram: the header, the questions in place
/// ([`MessageView::questions`]) and the layout of the records
/// ([`MessageView::with_spans`]), whose TTLs and A addresses
/// [`RecordSpan`] reads.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    data: &'a [u8],
    header: Header,
}

impl<'a> MessageView<'a> {
    /// Checks the whole message in `data`.
    ///
    /// # Errors
    ///
    /// Returns the [`DnsError`] [`Message::decode`] returns for `data`.
    pub fn new(data: &'a [u8]) -> Result<Self, DnsError> {
        Ok(MessageView { data, header: walk(data, None)? })
    }

    /// [`MessageView::new`], keeping where every record sits: `spans` is
    /// cleared and filled with one [`RecordSpan`] per record, in wire
    /// order. The walk is the same, so this accepts exactly what
    /// [`MessageView::new`] accepts; on an error `spans` holds the records
    /// before the one that failed. Reusing `spans` makes the walk
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns the [`DnsError`] [`Message::decode`] returns for `data`.
    pub fn with_spans(data: &'a [u8], spans: &mut Vec<RecordSpan>) -> Result<Self, DnsError> {
        spans.clear();
        if let Some(counts) = data.get(6..12) {
            // The counts are the sender's: reserve no more records than
            // the bytes could hold.
            let records: usize =
                counts.chunks_exact(2).map(|c| usize::from(u16::from_be_bytes([c[0], c[1]]))).sum();
            spans.reserve(records.min(data.len() / MIN_RECORD_LEN));
        }
        Ok(MessageView { data, header: walk(data, Some(spans))? })
    }

    /// The message header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The checked message bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// The questions, in wire order, each as [`Message::decode`] builds
    /// it (the name lower-cased).
    pub fn questions(&self) -> Questions<'a> {
        let count = self.data.get(4..6).map_or(0, |c| u16::from_be_bytes([c[0], c[1]]));
        Questions { data: self.data, at: 12, left: count }
    }

    /// An empty response skeleton echoing this query's ID, questions and
    /// RD flag: what [`Message::response_to`] builds for the decoded
    /// query, for a host that answers from the bytes.
    pub fn response(&self) -> Message {
        let Header { id, rd, .. } = self.header;
        Message {
            header: Header { id, qr: true, rd, ..Header::default() },
            questions: self.questions().collect(),
            ..Message::default()
        }
    }
}

/// The questions of a checked message, read in place
/// ([`MessageView::questions`]): `left` more from offset `at`.
#[derive(Debug, Clone)]
pub struct Questions<'a> {
    data: &'a [u8],
    at: usize,
    left: u16,
}

impl Iterator for Questions<'_> {
    type Item = Question;

    fn next(&mut self) -> Option<Question> {
        self.left = self.left.checked_sub(1)?;
        // The message was checked, so every counted question reads.
        let (name, at) = read_name_at(self.data, self.at).ok()?;
        let qtype = self.data.get(at..at + 4)?;
        self.at = at + 4;
        Some(Question {
            name,
            qtype: RecordType::from_code(u16::from_be_bytes([qtype[0], qtype[1]])),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::from(self.left);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Questions<'_> {}

/// Which message section a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// The byte layout of one resource record within its message, as the
/// checked walk ([`MessageView::with_spans`]) found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpan {
    /// Record type.
    pub rtype: RecordType,
    /// Section the record belongs to.
    pub section: Section,
    /// Byte offset of the record's start (owner name).
    pub record_offset: usize,
    /// Byte offset of the 4-byte TTL field.
    pub ttl_offset: usize,
    /// Byte offset of the RDATA.
    pub rdata_offset: usize,
    /// RDATA length in bytes.
    pub rdata_len: usize,
}

impl RecordSpan {
    /// Decodes the owner name (through compression pointers) from the
    /// message the span was walked over.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError`] if the name is malformed.
    pub fn name(&self, data: &[u8]) -> Result<Name, DnsError> {
        read_name_at(data, self.record_offset).map(|(name, _)| name)
    }

    /// The record's TTL, as [`Message::decode`] reads it.
    pub fn ttl(&self, data: &[u8]) -> Option<u32> {
        data.get(self.ttl_offset..)?.first_chunk::<4>().map(|ttl| u32::from_be_bytes(*ttl))
    }

    /// The address of an A record; `None` for any other type. What
    /// [`Record::as_a`] gives for the record [`Message::decode`] builds.
    pub fn a_addr(&self, data: &[u8]) -> Option<Ipv4Addr> {
        if self.rtype != RecordType::A {
            return None;
        }
        data.get(self.rdata_offset..)?.first_chunk::<4>().map(|&octets| Ipv4Addr::from(octets))
    }

    /// Builds the record the span describes, given its owner name (from
    /// [`RecordSpan::name`]): what [`Message::decode`] builds for it.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError`] if the span does not describe a well-formed
    /// record of `data`.
    pub(crate) fn record(&self, data: &[u8], owner: Name) -> Result<Record, DnsError> {
        let mut dec = Decoder { data, pos: self.ttl_offset.saturating_sub(4) };
        let (record, _) = dec.read_record_body::<Build>(self.section, self.record_offset, owner)?;
        Ok(record)
    }

    /// True for a glue record: an A record in the additional section.
    pub fn is_glue(&self) -> bool {
        self.section == Section::Additional && self.rtype == RecordType::A
    }
}

/// The message writer: header, questions, then records, with name
/// compression. It writes into a scratch buffer and its compression
/// table, both kept across messages: [`Encoder::start`] clears them and
/// [`Encoder::finish`] copies the message out. A host that writes many
/// messages keeps one; [`Message::encode`] uses one per thread.
#[derive(Debug)]
pub(crate) struct Encoder {
    buf: Vec<u8>,
    /// Name-compression table: a trie of every label suffix written so
    /// far, keyed on wire-form labels compared in place in `buf`. Node 0
    /// is the root; a name is looked up from its last label inwards.
    suffixes: Vec<Suffix>,
    /// The last name written and the pointer that now names all of it,
    /// if one can: an RRset's records repeat their owner, and a repeat
    /// is written as that pointer without a walk of the trie.
    last: Option<(Name, u16)>,
}

/// One written suffix (a label plus its parent suffix) in the
/// compression trie.
#[derive(Debug)]
struct Suffix {
    /// Buffer offset of the suffix's first label (its length byte).
    label_at: usize,
    /// That label's first eight wire bytes (see [`label_key`]).
    key: u64,
    /// Compression target, or [`NO_POINTER`] when the suffix was first
    /// written beyond the range the encoder points into.
    pointer: u16,
    /// First child suffix (one more label in front); 0 for none.
    first_child: u32,
    /// Next suffix with the same parent; 0 for none.
    next_sibling: u32,
}

/// The first eight bytes of a wire label (length byte first, zero-padded):
/// equal keys mean equal labels for labels of up to seven bytes, so
/// sibling scans rarely touch the buffer.
fn label_key(label: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let len = label.len().min(8);
    head[..len].copy_from_slice(&label[..len]);
    u64::from_le_bytes(head)
}

const NO_POINTER: u16 = u16::MAX;
/// Suffixes first written at or beyond this offset are not pointer targets.
const POINTER_LIMIT: usize = 0x3FFF;

impl Encoder {
    pub(crate) fn new() -> Self {
        let mut suffixes = Vec::with_capacity(64);
        suffixes.push(Suffix {
            label_at: 0,
            key: 0,
            pointer: NO_POINTER,
            first_child: 0,
            next_sibling: 0,
        });
        Encoder { buf: Vec::with_capacity(512), suffixes, last: None }
    }

    /// Starts a message in the emptied buffer, with an empty compression
    /// table: writes the header with `questions` and the three section
    /// counts (each truncated to 16 bits). The caller then writes that
    /// many questions and records.
    pub(crate) fn start(&mut self, header: &Header, questions: usize, sections: [usize; 3]) {
        self.buf.clear();
        self.suffixes.truncate(1);
        self.suffixes[0].first_child = 0;
        self.last = None;
        self.buf.put_slice(&header.id_and_flags());
        self.buf.put_u16(questions as u16);
        for count in sections {
            self.buf.put_u16(count as u16);
        }
    }

    /// Writes a question (class IN).
    pub(crate) fn put_question(&mut self, name: &Name, qtype: RecordType) {
        self.put_name(name);
        self.buf.put_u16(qtype.code());
        self.buf.put_u16(1); // class IN
    }

    /// The encoded message, if it fits the 16-bit length limit, copied
    /// into a pooled buffer of (at least) 512 bytes.
    pub(crate) fn finish(&self) -> Result<Bytes, DnsError> {
        if self.buf.len() > usize::from(u16::MAX) {
            return Err(DnsError::Oversize { len: self.buf.len() });
        }
        let mut wire = BytesMut::with_capacity(512);
        wire.extend_from_slice(&self.buf);
        Ok(wire.freeze())
    }

    /// Writes `name`, pointing at the longest suffix already written.
    fn put_name(&mut self, name: &Name) {
        if let Some((last, pointer)) = &self.last {
            if last == name {
                self.buf.put_u16(0xC000 | pointer);
                return;
            }
        }
        let wire = name.as_wire();
        // Label start offsets: a 254-byte name has at most 127 labels.
        let mut starts = [0u8; 128];
        let mut count = 0;
        let mut at = 0;
        while at < wire.len() {
            starts[count] = at as u8;
            count += 1;
            at += 1 + usize::from(wire[at]);
        }
        let start = |k: usize| if k < count { usize::from(starts[k]) } else { wire.len() };
        // Walk the trie from the last label inwards: `known` indexes the
        // longest suffix with a node, `reuse` the longest one a pointer
        // can name.
        let (mut node, mut known, mut reuse) = (0, count, None);
        for k in (0..count).rev() {
            let Some(child) = self.find_child(node, &wire[start(k)..start(k + 1)]) else { break };
            node = child;
            known = k;
            let pointer = self.suffixes[child as usize].pointer;
            if pointer != NO_POINTER {
                reuse = Some((k, pointer));
            }
        }
        let base = self.buf.len();
        match reuse {
            Some((k, pointer)) => {
                self.buf.put_slice(&wire[..start(k)]);
                self.buf.put_u16(0xC000 | pointer);
            }
            None => {
                self.buf.put_slice(wire);
                self.buf.put_u8(0);
            }
        }
        // Remember the suffixes written here for the first time.
        for k in (0..known).rev() {
            let label_at = base + start(k);
            let pointer = if label_at < POINTER_LIMIT { label_at as u16 } else { NO_POINTER };
            let key = label_key(&wire[start(k)..start(k + 1)]);
            node = self.add_child(
                node,
                Suffix { label_at, key, pointer, first_child: 0, next_sibling: 0 },
            );
        }
        // `node` is now the whole name's: the trie would point a repeat at
        // its pointer, if it has one.
        let pointer = self.suffixes[node as usize].pointer;
        // simlint: allow(hot-alloc) — a `Name` clone copies its inline
        // bytes; only a name past 30 bytes shares its spilled `Arc`.
        self.last = (node != 0 && pointer != NO_POINTER).then(|| (name.clone(), pointer));
    }

    /// The child of `parent` whose first label is `label` (length byte
    /// included).
    fn find_child(&self, parent: u32, label: &[u8]) -> Option<u32> {
        let key = label_key(label);
        let mut child = self.suffixes[parent as usize].first_child;
        while child != 0 {
            let suffix = &self.suffixes[child as usize];
            if suffix.key == key
                && (label.len() <= 8
                    || self.buf.get(suffix.label_at..suffix.label_at + label.len()) == Some(label))
            {
                return Some(child);
            }
            child = suffix.next_sibling;
        }
        None
    }

    /// Links `suffix` in as the newest child of `parent`.
    fn add_child(&mut self, parent: u32, mut suffix: Suffix) -> u32 {
        let id = self.suffixes.len() as u32;
        suffix.next_sibling = self.suffixes[parent as usize].first_child;
        self.suffixes.push(suffix);
        self.suffixes[parent as usize].first_child = id;
        id
    }

    pub(crate) fn put_record(&mut self, record: &Record) -> Result<(), DnsError> {
        self.put_record_with_ttl(record, record.ttl)
    }

    /// Writes `record` with its TTL replaced by `ttl`.
    pub(crate) fn put_record_with_ttl(
        &mut self,
        record: &Record,
        ttl: u32,
    ) -> Result<(), DnsError> {
        self.put_name(&record.name);
        // Class: IN for everything except OPT, where EDNS0 reuses the class
        // field as the advertised UDP payload size (RFC 6891).
        let class = match record.data {
            RData::Opt { udp_payload_size } => udp_payload_size,
            _ => 1,
        };
        // Type, class, TTL and an RDLENGTH placeholder, in one write.
        let mut fixed = [0u8; 10];
        fixed[..2].copy_from_slice(&record.rtype().code().to_be_bytes());
        fixed[2..4].copy_from_slice(&class.to_be_bytes());
        fixed[4..8].copy_from_slice(&ttl.to_be_bytes());
        self.buf.put_slice(&fixed);
        let rdlen_pos = self.buf.len() - 2;
        match &record.data {
            RData::A(addr) => self.buf.put_slice(&addr.octets()),
            RData::Ns(target) | RData::Cname(target) => self.put_name(target),
            RData::Soa { mname, serial, minimum } => {
                self.put_name(mname);
                self.put_name(mname); // rname: reuse mname for compactness
                self.buf.put_u32(*serial);
                self.buf.put_u32(3600); // refresh
                self.buf.put_u32(600); // retry
                self.buf.put_u32(86_400); // expire
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
                // Signer name, uncompressed per RFC 4034 §3.1.7.
                self.buf.put_slice(signer.as_wire());
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

/// What reading a record keeps of it. The per-type RDATA rules exist
/// once, in [`Decoder::read_record_body`]: the checked walk ([`walk`])
/// reads every record with [`Check`], which keeps nothing, and
/// [`RecordSpan::record`] builds one with [`Build`].
trait Keep {
    /// A read name.
    type Name;
    /// A read record.
    type Record;
    /// Reads the name at `pos`; returns it and the position after it.
    fn name(data: &[u8], pos: usize) -> Result<(Self::Name, usize), DnsError>;
    /// Keeps a record whose RDATA holds no name; `rdata` runs only if the
    /// record is kept.
    fn record(owner: Self::Name, ttl: u32, rdata: impl FnOnce() -> RData) -> Self::Record;
    /// Keeps a record whose RDATA holds the name `target`.
    fn record_with(
        owner: Self::Name,
        ttl: u32,
        target: Self::Name,
        rdata: impl FnOnce(Name) -> RData,
    ) -> Self::Record;
}

/// Keeps every name and the record: [`RecordSpan::record`].
struct Build;

impl Keep for Build {
    type Name = Name;
    type Record = Record;

    fn name(data: &[u8], pos: usize) -> Result<(Name, usize), DnsError> {
        read_name_at(data, pos)
    }

    fn record(owner: Name, ttl: u32, rdata: impl FnOnce() -> RData) -> Record {
        Record { name: owner, ttl, data: rdata() }
    }

    fn record_with(
        owner: Name,
        ttl: u32,
        target: Name,
        rdata: impl FnOnce(Name) -> RData,
    ) -> Record {
        Record { name: owner, ttl, data: rdata(target) }
    }
}

/// Keeps nothing, only checking: the walk.
struct Check;

impl Keep for Check {
    type Name = ();
    type Record = ();

    fn name(data: &[u8], pos: usize) -> Result<((), usize), DnsError> {
        skip_name_at(data, pos).map(|next| ((), next))
    }

    fn record((): (), _: u32, _: impl FnOnce() -> RData) {}

    fn record_with((): (), _: u32, (): (), _: impl FnOnce(Name) -> RData) {}
}

/// Smallest wire size of a record (root owner and the fixed fields): the
/// section counts are the sender's, so capacities are bounded by the
/// bytes that are left.
const MIN_RECORD_LEN: usize = 11;

/// The checked walk: checks a whole message, building nothing, and
/// returns its header. `spans`, if given, gets each record's layout, in
/// wire order.
fn walk(data: &[u8], mut spans: Option<&mut Vec<RecordSpan>>) -> Result<Header, DnsError> {
    let mut dec = Decoder { data, pos: 0 };
    if data.len() < 12 {
        return Err(DnsError::Truncated { context: "header" });
    }
    let id = dec.u16()?;
    let flags = dec.u16()?;
    let counts = [dec.u16()?, dec.u16()?, dec.u16()?, dec.u16()?];
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
    for _ in 0..counts[0] {
        dec.pos = skip_name_at(data, dec.pos)?;
        let _qtype = dec.u16()?;
        let _class = dec.u16()?;
    }
    let sections = [Section::Answer, Section::Authority, Section::Additional];
    for (section, count) in sections.into_iter().zip(&counts[1..]) {
        for _ in 0..*count {
            let record_offset = dec.pos;
            dec.pos = skip_name_at(data, dec.pos)?;
            let ((), span) = dec.read_record_body::<Check>(section, record_offset, ())?;
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(span);
            }
        }
    }
    Ok(header)
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

    /// Reads one record of `section` after its owner name, which was read
    /// at `record_offset` (the decoder sits just after it): the per-type
    /// RDATA rules. Returns what `K` keeps and the record's layout.
    fn read_record_body<K: Keep>(
        &mut self,
        section: Section,
        record_offset: usize,
        owner: K::Name,
    ) -> Result<(K::Record, RecordSpan), DnsError> {
        let ttl_offset = self.pos + 4;
        let rtype = RecordType::from_code(self.u16()?);
        let class_or_size = self.u16()?;
        let ttl = self.u32()?;
        let rdlen = usize::from(self.u16()?);
        let rdata_start = self.pos;
        if rdata_start + rdlen > self.data.len() {
            return Err(DnsError::Truncated { context: "rdata" });
        }
        let rdata_end = rdata_start + rdlen;
        let record = match rtype {
            RecordType::A => {
                if rdlen != 4 {
                    return Err(DnsError::BadField { field: "A rdlength" });
                }
                let b = self.take(4)?;
                K::record(owner, ttl, || RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3])))
            }
            RecordType::Ns | RecordType::Cname => {
                let (target, next) = K::name(self.data, rdata_start)?;
                if next > rdata_end {
                    return Err(DnsError::Truncated { context: "name rdata" });
                }
                self.pos = rdata_end;
                K::record_with(owner, ttl, target, |target| {
                    if rtype == RecordType::Ns {
                        RData::Ns(target)
                    } else {
                        RData::Cname(target)
                    }
                })
            }
            RecordType::Soa => {
                let (mname, next) = K::name(self.data, rdata_start)?;
                let next = skip_name_at(self.data, next)?; // rname
                let mut tail = Decoder { data: self.data, pos: next };
                let serial = tail.u32()?;
                let _refresh = tail.u32()?;
                let _retry = tail.u32()?;
                let _expire = tail.u32()?;
                let minimum = tail.u32()?;
                self.pos = rdata_end;
                K::record_with(owner, ttl, mname, |mname| RData::Soa { mname, serial, minimum })
            }
            RecordType::Txt => {
                let raw = self.take(rdlen)?;
                if txt_strings(raw).any(|s| s.is_none()) {
                    return Err(DnsError::Truncated { context: "txt" });
                }
                K::record(owner, ttl, || {
                    RData::Txt(txt_strings(raw).flatten().map(String::from_utf8_lossy).collect())
                })
            }
            RecordType::Opt => {
                self.take(rdlen)?;
                K::record(owner, ttl, || RData::Opt { udp_payload_size: class_or_size })
            }
            RecordType::Rrsig => {
                let mut tail = Decoder { data: self.data, pos: rdata_start };
                let type_covered = RecordType::from_code(tail.u16()?);
                let (signer, next) = K::name(self.data, tail.pos)?;
                let mut sig_dec = Decoder { data: self.data, pos: next };
                let hi = sig_dec.u32()?;
                let lo = sig_dec.u32()?;
                self.pos = rdata_end;
                K::record_with(owner, ttl, signer, |signer| RData::Rrsig {
                    type_covered,
                    signer,
                    signature: (u64::from(hi) << 32) | u64::from(lo),
                })
            }
            RecordType::Dnskey => {
                let mut tail = Decoder { data: self.data, pos: rdata_start };
                let key_tag = tail.u16()?;
                self.pos = rdata_end;
                K::record(owner, ttl, || RData::Dnskey { key_tag })
            }
            RecordType::Unknown(code) => {
                let raw = self.take(rdlen)?;
                K::record(owner, ttl, || RData::Unknown {
                    rtype: code,
                    data: Bytes::copy_from_slice(raw),
                })
            }
        };
        let span = RecordSpan {
            rtype,
            section,
            record_offset,
            ttl_offset,
            rdata_offset: rdata_start,
            rdata_len: rdlen,
        };
        Ok((record, span))
    }
}

/// The character-strings of TXT RDATA, in order; `None` (then the end)
/// for a string that runs past the RDATA.
fn txt_strings(mut raw: &[u8]) -> impl Iterator<Item = Option<&[u8]>> {
    std::iter::from_fn(move || {
        let (&len, rest) = raw.split_first()?;
        let Some((string, rest)) = rest.split_at_checked(usize::from(len)) else {
            raw = &[];
            return Some(None);
        };
        raw = rest;
        Some(Some(string))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pool() -> Name {
        "pool.ntp.org".parse().unwrap()
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(0x1234, pool(), RecordType::A, true);
        let wire = q.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, q);
        assert!(back.header.rd);
        assert!(!back.header.qr);
    }

    #[test]
    fn response_with_all_sections_round_trips() {
        let q = Message::query(7, pool(), RecordType::A, true);
        let mut resp = Message::response_to(&q);
        resp.header.aa = true;
        resp.answers.push(Record::a(pool(), 150, Ipv4Addr::new(192, 0, 2, 10)));
        resp.answers.push(Record::a(pool(), 150, Ipv4Addr::new(192, 0, 2, 11)));
        resp.authorities.push(Record::ns(pool(), 3600, "ns1.pool.ntp.org".parse().unwrap()));
        resp.additionals.push(Record::a(
            "ns1.pool.ntp.org".parse().unwrap(),
            3600,
            Ipv4Addr::new(198, 51, 100, 1),
        ));
        let wire = resp.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.answers.iter().filter_map(Record::as_a).count(), 2);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::query(7, pool(), RecordType::A, true);
        let mut resp = Message::response_to(&q);
        for i in 0..4 {
            resp.answers.push(Record::a(pool(), 150, Ipv4Addr::new(192, 0, 2, i)));
        }
        let wire = resp.encode().unwrap();
        // Uncompressed: each answer name costs 14 bytes; compressed: 2.
        // Header 12 + question (14+4) + 4 * (2+2+2+4+2+4) = 94.
        assert_eq!(wire.len(), 94);
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.answers.len(), 4);
        assert!(back.answers.iter().all(|r| r.name == pool()));
    }

    #[test]
    fn soa_and_txt_round_trip() {
        let mut m = Message::query(1, pool(), RecordType::Soa, false);
        m.header.qr = true;
        m.authorities.push(Record::new(
            pool(),
            300,
            RData::Soa { mname: "ns1.pool.ntp.org".parse().unwrap(), serial: 42, minimum: 60 },
        ));
        m.additionals.push(Record::new(pool(), 60, RData::Txt("hello world".into())));
        let back = Message::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rrsig_and_dnskey_round_trip() {
        let mut m = Message::query(1, pool(), RecordType::A, false);
        m.header.qr = true;
        m.answers.push(Record::a(pool(), 150, Ipv4Addr::new(1, 2, 3, 4)));
        m.answers.push(Record::new(
            pool(),
            150,
            RData::Rrsig {
                type_covered: RecordType::A,
                signer: pool(),
                signature: 0xDEAD_BEEF_CAFE_F00D,
            },
        ));
        m.additionals.push(Record::new(pool(), 150, RData::Dnskey { key_tag: 257 }));
        let back = Message::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn opt_record_carries_udp_size_in_class() {
        let mut m = Message::query(9, pool(), RecordType::A, true);
        m.additionals.push(Record::new(Name::root(), 0, RData::Opt { udp_payload_size: 4096 }));
        let back = Message::decode(&m.encode().unwrap()).unwrap();
        match back.additionals[0].data {
            RData::Opt { udp_payload_size } => assert_eq!(udp_payload_size, 4096),
            ref other => panic!("expected OPT, got {other:?}"),
        }
    }

    #[test]
    fn pointer_loop_rejected() {
        // Craft: header + a name that points at itself.
        let mut raw = vec![0u8; 12];
        raw[5] = 1; // qdcount = 1
        raw.extend_from_slice(&[0xC0, 12]); // pointer to itself
        raw.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(Message::decode(&raw), Err(DnsError::BadPointer)));
    }

    #[test]
    fn truncated_rdata_rejected() {
        let q = Message::query(7, pool(), RecordType::A, true);
        let mut resp = Message::response_to(&q);
        resp.answers.push(Record::a(pool(), 150, Ipv4Addr::new(1, 2, 3, 4)));
        let wire = resp.encode().unwrap();
        let cut = &wire[..wire.len() - 2];
        assert!(Message::decode(cut).is_err());
    }

    #[test]
    fn dotted_label_does_not_alias_a_label_boundary() {
        // One label "a.b" and the two labels "a", "b" print alike but
        // differ on the wire: the answer must not compress onto the
        // question's name.
        let dotted = Name::from_labels(["a.b"]).unwrap();
        let two: Name = "a.b".parse().unwrap();
        let mut m = Message::query(1, dotted, RecordType::A, false);
        m.header.qr = true;
        m.answers.push(Record::a(two, 60, Ipv4Addr::new(192, 0, 2, 1)));
        let back = Message::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.answers[0].name.label_count(), 2);
    }

    #[test]
    fn unknown_type_passthrough() {
        let mut m = Message::query(3, pool(), RecordType::Unknown(250), false);
        m.header.qr = true;
        m.answers.push(Record::new(
            pool(),
            10,
            RData::Unknown { rtype: 250, data: Bytes::from_static(&[9, 9, 9]) },
        ));
        let back = Message::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(back, m);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// [`query_bytes`] writes what the owned builder encodes, for
        /// every record type, both RD values and any ID, over names from
        /// the root to 127 labels or 255 bytes, in mixed case; and the
        /// checked walk reads the bytes back as that one question.
        #[test]
        fn query_bytes_are_the_owned_builders_encode(
            raw_id in any::<u16>(),
            id_pick in 0..4u8,
            labels in proptest::collection::vec("[a-zA-Z0-9-]{1,63}", 0..128),
            shape in 0..4u8,
            type_pick in 0..9u8,
            code in any::<u16>(),
            rd in any::<bool>(),
        ) {
            let id = match id_pick {
                0 => 0,
                1 => u16::MAX,
                _ => raw_id,
            };
            // Shape 0 is the root, shape 1 the most labels a name holds
            // (127), shape 2 up to 127 one-byte labels, and shape 3 long
            // labels up to the 255-byte limit.
            let short = |k: usize| labels.get(k).map_or("x", |label| &label[..1]).to_string();
            let mut labels = match shape {
                0 => Vec::new(),
                1 => (0..127).map(short).collect(),
                2 => (0..labels.len()).map(short).collect(),
                _ => labels.clone(),
            };
            let mut len = 1;
            let fits = labels.iter().take_while(|label| {
                len += 1 + label.len();
                len <= 255
            });
            labels.truncate(fits.count());
            let name = Name::from_labels(&labels).unwrap();
            let qtype = [
                RecordType::A,
                RecordType::Ns,
                RecordType::Cname,
                RecordType::Soa,
                RecordType::Txt,
                RecordType::Opt,
                RecordType::Rrsig,
                RecordType::Dnskey,
                RecordType::Unknown(code),
            ][usize::from(type_pick)];
            let wire = query_bytes(id, &name, qtype, rd);
            let full = Message::query(id, name.clone(), qtype, rd).encode().unwrap();
            prop_assert_eq!(&wire, &full, "{} {:?} rd {} id {}", name, qtype, rd, id);
            let view = MessageView::new(&wire).unwrap();
            let header = view.header();
            prop_assert_eq!((header.id, header.rd, header.qr), (id, rd, false));
            let questions: Vec<_> = view.questions().map(|q| (q.name, q.qtype.code())).collect();
            prop_assert_eq!(questions, vec![(name, qtype.code())]);
        }
    }
}
