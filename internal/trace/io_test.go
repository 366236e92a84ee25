package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cptgpt/internal/events"
)

// TestTraceFixtures pins the on-disk trace formats. The cptgpt-trace/1
// files under testdata were written before event lines became the one
// format (counted.* by a whole-dataset writer whose header counts its
// streams, streamed.* by an incremental one whose header says -1), and
// flat.csv.gz by the csv writer of that time. Each must load to the same
// dataset and survive a SaveFile → LoadFile round trip. SaveFile must
// write the pinned event lines of events.jsonl, and csv byte for byte as
// flat.csv.gz holds it.
func TestTraceFixtures(t *testing.T) {
	want, err := LoadFile("testdata/streamed.jsonl", events.Gen5G) // the header's generation wins
	if err != nil {
		t.Fatal(err)
	}
	if want.Generation != events.Gen4G || want.NumStreams() != 3 || want.NumEvents() != 32 {
		t.Fatalf("streamed.jsonl: %v, %d streams, %d events", want.Generation, want.NumStreams(), want.NumEvents())
	}
	dir := t.TempDir()
	for _, name := range []string{"counted.jsonl", "counted.jsonl.gz", "streamed.jsonl", "streamed.jsonl.gz", "flat.csv.gz", "events.jsonl"} {
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
	for _, pin := range []struct{ wrote, pinned string }{
		{"streamed.jsonl", "testdata/events.jsonl"},
		{"flat.csv.gz", "testdata/flat.csv.gz"},
	} {
		if wrote, pinned := readAll(t, filepath.Join(dir, pin.wrote)), readAll(t, pin.pinned); !bytes.Equal(wrote, pinned) {
			t.Errorf("SaveFile no longer writes the bytes of %s", pin.pinned)
		}
	}
}

// readAll returns the file's bytes, decompressed under a ".gz" suffix.
func readAll(t testing.TB, path string) []byte {
	t.Helper()
	r, err := openFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFileRoundTripGzip: a dataset saved in either format, gzipped or
// not, loads back equal — the sample dataset, an empty one, and a file
// written incrementally, one flushed event at a time, the way a sink
// grows it.
func TestFileRoundTripGzip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.jsonl.gz", "t.csv.gz", "t.jsonl", "t.csv"} {
		for _, d := range []*Dataset{sampleDataset(), {Generation: events.Gen5G}} {
			path := filepath.Join(dir, name)
			if err := SaveFile(path, d); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := LoadFile(path, d.Generation)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, d) {
				t.Fatalf("%s: %d streams loaded back as %+v", name, d.NumStreams(), got)
			}
		}

		d := sampleDataset()
		path := filepath.Join(dir, "incremental-"+name)
		w, err := createFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lw, err := NewLineWriter(w, fileFormat(path), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Streams {
			for _, e := range s.Events {
				if err := lw.Write(e.Time, []byte(s.UEID), s.Device, e.Type); err != nil {
					t.Fatal(err)
				}
				if err := lw.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadFile(path, d.Generation); err != nil || !reflect.DeepEqual(got, d) {
			t.Fatalf("%s written incrementally: %v, loaded %+v", name, err, got)
		}
	}
}

// TestLoadChecksGeneration: event lines carry no generation, so a row
// whose type is not in the caller's generation is an error that names the
// generation the trace is in; read as that generation, it loads.
func TestLoadChecksGeneration(t *testing.T) {
	d := &Dataset{Generation: events.Gen5G, Streams: []Stream{
		{UEID: "u", Device: events.Phone, Events: []Event{{Time: 1, Type: events.Register}, {Time: 2, Type: events.ANRel}}},
	}}
	dir := t.TempDir()
	for _, name := range []string{"t.csv", "t.jsonl"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, d); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path, events.Gen4G); err == nil || !strings.Contains(err.Error(), "-gen 5G") {
			t.Fatalf("%s: a 5G trace read as 4G: %v", name, err)
		}
		if got, err := LoadFile(path, events.Gen5G); err != nil || !reflect.DeepEqual(got, d) {
			t.Fatalf("%s: read as 5G: %v", name, err)
		}
	}
}

// FuzzLoadLines: LoadFile never panics on any bytes, in either format, and
// a dataset it accepts is what it loads back from SaveFile's output: every
// row it accepts survives the writer.
func FuzzLoadLines(f *testing.F) {
	for _, name := range []string{"streamed.jsonl", "counted.jsonl", "events.jsonl", "flat.csv.gz"} {
		f.Add(readAll(f, filepath.Join("testdata", name)), strings.HasPrefix(name, "flat"), false)
	}
	f.Add([]byte(csvHeader+"\n\"a,b\",phone,1e-7,atch\n\" lead\",tablet,0x1p-3,TAU\n\"q\"\"\",phone,-0,ATCH\n\"a,b\",phone,2,SRV_REQ\n"), true, false)
	f.Add([]byte(csvHeader+"\n\"x\r\r\ny\",phone,1,ATCH\n"), true, false)
	f.Add([]byte(`{"t":1e-7,"ue_id":"é\ud800","device_type":" Phone","event_type":"register"}`+"\n"+`{"t":1e300,"ue_id":"<&>","device_type":"connected_car","event_type":"AN_REL","x":1}`), false, true)
	f.Add([]byte("null"), false, false)
	f.Add([]byte(`{"format":"cptgpt-trace/1","generation":"NR"}{"ue_id":"a","device_type":1,"events":[{"t":1,"e":6}]}{"ue_id":"a","device_type":1,"events":null}`), false, false)
	f.Fuzz(func(t *testing.T, data []byte, csv, gen5 bool) {
		ext, gen := ".jsonl", events.Gen4G
		if csv {
			ext = ".csv"
		}
		if gen5 {
			gen = events.Gen5G
		}
		dir := t.TempDir()
		in := filepath.Join(dir, "in"+ext)
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := LoadFile(in, gen)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out"+ext)
		if err := SaveFile(out, d); err != nil {
			t.Fatalf("SaveFile of a loaded dataset: %v", err)
		}
		back, err := LoadFile(out, d.Generation)
		if err != nil {
			t.Fatalf("SaveFile's output does not load: %v", err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("Save → Load changed the dataset:\n got %+v\nwant %+v", back, d)
		}
	})
}
