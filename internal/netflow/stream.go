package netflow

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// Writer packs records into NetFlow V5 export datagrams (at most 30
// records each) and writes them back-to-back to an underlying stream —
// the layout of an on-disk flow archive.
type Writer struct {
	w        io.Writer
	boot     Time
	pending  []Record
	sequence uint32
	buf      [HeaderSize + MaxPerPacket*RecordSize]byte
	err      error
}

// maxUptime is the range of the 32-bit millisecond uptime field, about
// 49.7 days.
const maxUptime = 1 << 32 * time.Millisecond

// NewWriter returns a Writer whose sysUptime clock starts at boot. All
// record timestamps must be >= boot and less than maxUptime after it;
// Write rejects a record that is not.
func NewWriter(w io.Writer, boot time.Time) *Writer {
	return &Writer{w: w, boot: TimeOf(boot)}
}

// Write queues one record, flushing a datagram when 30 are pending.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if r.First < w.boot {
		return fmt.Errorf("netflow: record starts %v before exporter boot %v", r.First.UTC(), w.boot.UTC())
	}
	// Past maxUptime the uptime fields wrap, and the datagram's records
	// would read back shifted by it. Last >= First >= boot, so the
	// unsigned difference is exact even where the signed one overflows.
	if uint64(r.Last-w.boot) >= uint64(maxUptime) {
		return fmt.Errorf("netflow: record ends %v, past the 32-bit uptime of exporter boot %v", r.Last.UTC(), w.boot.UTC())
	}
	w.pending = append(w.pending, r)
	if len(w.pending) >= MaxPerPacket {
		return w.flushPacket()
	}
	return nil
}

// Flush writes any pending records as a final (possibly short) datagram.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.pending) == 0 {
		return nil
	}
	return w.flushPacket()
}

func (w *Writer) flushPacket() error {
	n := len(w.pending)
	// Export time: the latest record end in the batch.
	export := w.pending[0].Last
	for _, r := range w.pending[1:] {
		export = max(export, r.Last)
	}
	h := Header{
		Count:        uint16(n),
		SysUptime:    uint32(time.Duration(export-w.boot) / time.Millisecond),
		ExportTime:   export.UTC(),
		FlowSequence: w.sequence,
	}
	MarshalHeader(w.buf[:], &h)
	for i, r := range w.pending {
		marshalRecord(w.buf[HeaderSize+i*RecordSize:], &r, w.boot)
	}
	w.sequence += uint32(n)
	w.pending = w.pending[:0]
	if _, err := w.w.Write(w.buf[:HeaderSize+n*RecordSize]); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Reader streams records out of a concatenation of NetFlow V5 export
// datagrams, as produced by Writer.
type Reader struct {
	r       io.Reader
	pending []Record
	buf     [MaxPerPacket * RecordSize]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next returns the next record, or io.EOF at clean end of stream. A
// truncated datagram yields io.ErrUnexpectedEOF.
func (r *Reader) Next() (Record, error) {
	if len(r.pending) == 0 {
		if err := r.readPacket(); err != nil {
			return Record{}, err
		}
	}
	rec := r.pending[0]
	r.pending = r.pending[1:]
	return rec, nil
}

func (r *Reader) readPacket() error {
	hdr := r.buf[:HeaderSize]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err // io.EOF at a packet boundary is a clean end
	}
	h, err := UnmarshalHeader(hdr)
	if err != nil {
		return err
	}
	body := r.buf[:int(h.Count)*RecordSize]
	if _, err := io.ReadFull(r.r, body); err != nil {
		return io.ErrUnexpectedEOF
	}
	boot := h.bootTime()
	r.pending = r.pending[:0]
	for i := 0; i < int(h.Count); i++ {
		r.pending = append(r.pending, unmarshalRecord(body[i*RecordSize:], boot))
	}
	return nil
}
