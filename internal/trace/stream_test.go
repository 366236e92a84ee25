package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cptgpt/internal/events"
)

func TestStreamWriterReaderRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, d.Generation)
	for i := range d.Streams {
		if err := w.WriteStream(&d.Streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Streams() != len(d.Streams) {
		t.Fatalf("wrote %d streams, want %d", w.Streams(), len(d.Streams))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation() != d.Generation {
		t.Fatalf("generation %v, want %v", r.Generation(), d.Generation)
	}
	var got []Stream
	for {
		var s Stream
		if err := r.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if !reflect.DeepEqual(got, d.Streams) {
		t.Fatalf("streamed round trip mismatch:\n got %+v\nwant %+v", got, d.Streams)
	}
}

// A JSONL file whose header counts its streams (what the whole-dataset
// writer this package once had wrote) must load through the one reader, and
// equal the streamed form of the same dataset (header count -1).
func TestStreamWriterReadableByReadJSONL(t *testing.T) {
	d := sampleDataset()
	var streamed bytes.Buffer
	if err := writeJSONL(&streamed, d); err != nil {
		t.Fatal(err)
	}
	counted := bytes.Replace(streamed.Bytes(), []byte(`"streams":-1`), []byte(`"streams":2`), 1)
	if bytes.Equal(counted, streamed.Bytes()) {
		t.Fatal("header count not rewritten")
	}
	for name, b := range map[string][]byte{"streamed": streamed.Bytes(), "counted": counted} {
		got, err := readJSONL(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Generation != d.Generation || !reflect.DeepEqual(got.Streams, d.Streams) {
			t.Fatalf("%s header: read back %+v", name, got)
		}
	}
}

// TestTraceFixtures pins the on-disk trace formats: the files under
// testdata were written by the commit before the JSONL twins were folded
// into the stream pair (counted.* by the deleted whole-dataset writer,
// streamed.* and flat.csv.gz by SaveFile). Each must load to the same
// dataset and survive a SaveFile → LoadFile round trip, and SaveFile must
// still write the streamed bytes.
func TestTraceFixtures(t *testing.T) {
	want, err := LoadFile("testdata/streamed.jsonl", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	if want.Generation != events.Gen4G || want.NumStreams() != 3 || want.NumEvents() != 32 {
		t.Fatalf("streamed.jsonl: %d streams, %d events", want.NumStreams(), want.NumEvents())
	}
	dir := t.TempDir()
	for _, name := range []string{"counted.jsonl", "counted.jsonl.gz", "streamed.jsonl", "streamed.jsonl.gz", "flat.csv.gz"} {
		got, err := LoadFile(filepath.Join("testdata", name), events.Gen4G)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: loaded dataset differs from streamed.jsonl", name)
		}
		out := filepath.Join(dir, name)
		if err := SaveFile(out, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := LoadFile(out, events.Gen4G); err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: SaveFile → LoadFile changed the dataset (err %v)", name, err)
		}
	}
	wrote, err := os.ReadFile(filepath.Join(dir, "streamed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile("testdata/streamed.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wrote, pinned) {
		t.Fatal("SaveFile no longer writes the pinned JSONL bytes")
	}
}

func TestEmptyStreamWriterStillValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, events.Gen5G)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Generation != events.Gen5G || len(d.Streams) != 0 {
		t.Fatalf("empty trace read back wrong: %+v", d)
	}
}

func TestFileRoundTripGzip(t *testing.T) {
	d := sampleDataset()
	dir := t.TempDir()
	for _, name := range []string{"t.jsonl.gz", "t.csv.gz", "t.jsonl", "t.csv"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path, d.Generation)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumStreams() != d.NumStreams() || got.NumEvents() != d.NumEvents() {
			t.Fatalf("%s: round trip lost data: %d/%d streams, %d/%d events",
				name, got.NumStreams(), d.NumStreams(), got.NumEvents(), d.NumEvents())
		}
		if !reflect.DeepEqual(got.Streams[0].Events, d.Streams[0].Events) {
			t.Fatalf("%s: stream 0 mismatch", name)
		}
	}
}

func TestCreateStreamGzipRoundTrip(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "stream.jsonl.gz")
	w, err := CreateStream(path, d.Generation)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Streams {
		if err := w.WriteStream(&d.Streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var n int
	for {
		var s Stream
		if err := r.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(d.Streams) {
		t.Fatalf("read %d streams, want %d", n, len(d.Streams))
	}
}
