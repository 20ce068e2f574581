package dash

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// benchShapedVideo has the shape of the benchmark's video (bench/socket.go):
// 256 four-second chunks at three rungs of about 16 KiB, 128 KiB and
// 512 KiB a chunk, so its manifest lists 768 segments in about 58 KB.
func benchShapedVideo() *Video {
	v := &Video{Name: "bench-256", ChunkDuration: 4 * time.Second, NumChunks: 256, SizeSeed: 0xbe7c}
	for i, kib := range []float64{16, 128, 512} {
		mbps := kib * 1024 * 8 / v.ChunkDuration.Seconds() / 1e6
		v.Levels = append(v.Levels, Level{ID: i + 1, AvgBitrateMbps: mbps})
	}
	return v
}

// encodeCases are manifests whose encoding must match the oracle's bytes:
// the benchmark's and every Table-3 video's, and the empty and escaped
// corners the catalogue never reaches.
func encodeCases() map[string]*MPD {
	cases := map[string]*MPD{
		"benchmark": benchShapedVideo().Manifest(),
		"empty":     {},
		"no segments": {Period: Period{AdaptationSet: AdaptationSet{
			SegmentDuration: 2.5,
			Representations: []Representation{{ID: 1, Bandwidth: 1}, {ID: -2}},
		}}},
		"escaped": {
			Profiles:                  `a"b'c&d<e>f` + "\t\n\r",
			Type:                      "\x00\x1f\xff\xfe" + "\uFFFD\uFFFE\U0010FFFF",
			MediaPresentationDuration: "é😀",
			Period: Period{AdaptationSet: AdaptationSet{
				MimeType:        "]]>",
				SegmentDuration: math.Inf(-1),
				Representations: []Representation{{ID: math.MinInt, Bandwidth: math.MaxInt64,
					Segments: []Segment{{Media: "&amp;", Size: -1}, {}}}},
			}},
		},
	}
	for _, v := range Catalog() {
		cases[v.Name] = v.Manifest()
	}
	return cases
}

func TestEncodeMPDMatchesOracle(t *testing.T) {
	for name, m := range encodeCases() {
		got, err := EncodeMPD(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refEncodeMPD(m)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeMPD differs from MarshalIndent at byte %d", name, firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// sizedSegments is the segment list of the decode cases below.
const sizedSegments = `<SegmentList><SegmentURL media="a" size="10"/><SegmentURL media="b" size="20"/></SegmentList>`

// decodeCases are manifests DecodeMPD must read as the oracle does
// (accept) or must refuse (reject).
var decodeCases = []struct {
	name, doc string
	accept    bool
}{
	{"reordered attributes", `<MPD type="static" profiles="p"><Period><AdaptationSet segmentDurationSeconds="4" mimeType="video/mp4"><Representation bandwidth="500000" id="1">` + sizedSegments + `</Representation></AdaptationSet></Period></MPD>`, true},
	{"single quotes and spaced equals", `<MPD profiles = 'p"q' type='static' ><Period><AdaptationSet segmentDurationSeconds=' 4 '><Representation id='1' bandwidth=' +500000'>` + sizedSegments + `</Representation></AdaptationSet></Period></MPD >`, true},
	{"declaration, comments, CRLF", "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>\r\n<!-- made by hand -->\r\n<MPD\r\n  profiles=\"a\r\nb\">\r\n<!-- - -->\r\n<Period><AdaptationSet><Representation id=\"1\">" + sizedSegments + "</Representation></AdaptationSet></Period></MPD>", true},
	{"entity-escaped attribute", `<MPD profiles="&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x1F600;&#13;&#x9;"><Period><AdaptationSet mimeType="video&#x2F;mp4"><Representation id="&#49;" bandwidth="1&#48;">` + `<SegmentList><SegmentURL media="seg&amp;1" size="&#x35;"/></SegmentList></Representation></AdaptationSet></Period></MPD>`, true},
	{"unknown nested element", `<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" minBufferTime="PT2S"><BaseURL>http://x/&amp;</BaseURL><Period id="0"><Representation id="9"/><AdaptationSet><Role><Representation id="8"><SegmentList><SegmentURL size="1"/></SegmentList></Representation></Role><Representation id="1" codecs="avc1"><SegmentTemplate/><SegmentURL media="stray" size="5"/>` + sizedSegments + `</Representation></AdaptationSet></Period><Period/></MPD>`, true},
	{"repeats merge as in Unmarshal", `<MPD><Period><AdaptationSet mimeType="a" segmentDurationSeconds="2"><Representation id="1">` + sizedSegments + sizedSegments + `</Representation></AdaptationSet></Period><Period><AdaptationSet segmentDurationSeconds="3"><Representation id="2"><SegmentList/></Representation></AdaptationSet></Period></MPD>`, true},
	{"empty values and duplicate attributes", `<MPD profiles="a" profiles=""><Period><AdaptationSet segmentDurationSeconds=""><Representation id="" bandwidth="7" bandwidth="8"><SegmentList><SegmentURL media="" size=""></SegmentURL></SegmentList></Representation></AdaptationSet></Period></MPD>`, true},
	{"self-closing root, trailing bytes", `<MPD profiles="p"/>trailing <unclosed`, true},
	{"text inside a segment", `<MPD><Period><AdaptationSet><Representation><SegmentList><SegmentURL media="m" size="3">text<x a="1"/>]]&gt;</SegmentURL></SegmentList></Representation></AdaptationSet></Period></MPD>`, true},

	{"garbage", "not xml at all <", false},
	{"empty", "", false},
	{"other root", `<Manifest/>`, false},
	{"mismatched end tag", `<MPD><Period></Perio></MPD>`, false},
	{"mismatched skipped end tag", `<MPD><X><Y></X></Y></MPD>`, false},
	{"unterminated", `<MPD><Period>`, false},
	{"unquoted value", `<MPD profiles=p/>`, false},
	{"valueless attribute", `<MPD profiles/>`, false},
	{"unknown entity", `<MPD profiles="&nbsp;"/>`, false},
	{"entity without semicolon", `<MPD profiles="&amp"/>`, false},
	{"reference out of range", `<MPD profiles="&#x110000;"/>`, false},
	{"reference to NUL", `<MPD profiles="&#0;"/>`, false},
	{"reference to a surrogate", `<MPD profiles="&#xD800;"/>`, false},
	{"upper-case hex reference", `<MPD profiles="&#X41;"/>`, false},
	{"raw < in value", `<MPD profiles="a<b"/>`, false},
	{"invalid UTF-8", "<MPD profiles=\"\xff\"/>", false},
	{"control character", "<MPD profiles=\"\x01\"/>", false},
	{"]]> in text", `<MPD>]]></MPD>`, false},
	{"double dash in comment", `<MPD><!-- a -- b --></MPD>`, false},
	{"bad size", `<MPD><Period><AdaptationSet><Representation><SegmentList><SegmentURL size="1.5"/></SegmentList></Representation></AdaptationSet></Period></MPD>`, false},
	{"size overflows", `<MPD><Period><AdaptationSet><Representation><SegmentList><SegmentURL size="9223372036854775808"/></SegmentList></Representation></AdaptationSet></Period></MPD>`, false},
	{"bad duration", `<MPD><Period><AdaptationSet segmentDurationSeconds="4s"/></Period></MPD>`, false},
	{"XML version 1.1", `<?xml version="1.1"?><MPD/>`, false},
	{"other encoding", `<?xml version="1.0" encoding="latin1"?><MPD/>`, false},

	// encoding/xml reads these; the scanner refuses them.
	{"CDATA", `<MPD><![CDATA[x]]></MPD>`, false},
	{"DOCTYPE", `<!DOCTYPE MPD><MPD/>`, false},
	{"processing instruction", `<MPD><?pi x?></MPD>`, false},
	{"namespace prefix", `<mpd:MPD xmlns:mpd="urn:x"/>`, false},
	{"prefixed attribute", `<MPD x:profiles="p"/>`, false},
	{"non-ASCII name", `<MPD><Pérιod/></MPD>`, false},
	{"text before the root", `hello<MPD/>`, false},
	{"byte-order mark", "\uFEFF<MPD/>", false},
	{"declaration after a comment", `<!-- c --><?xml version="1.0"?><MPD/>`, false},
}

func TestDecodeMPDMatchesOracle(t *testing.T) {
	for _, c := range decodeCases {
		got, err := DecodeMPD([]byte(c.doc))
		if !c.accept {
			if err == nil {
				t.Errorf("%s: accepted", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want, err := refDecodeMPD([]byte(c.doc))
		if err != nil {
			t.Errorf("%s: the oracle refuses it: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

func TestMPDRoundTrip(t *testing.T) {
	for _, v := range append(Catalog(), benchShapedVideo()) {
		m := v.Manifest()
		b, err := EncodeMPD(m)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := DecodeMPD(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("%s: the manifest does not survive a round trip", v.Name)
		}
		v2, sizes, err := VideoFromManifest(m2, v.Name)
		if err != nil {
			t.Fatal(err)
		}
		if v2.NumChunks != v.NumChunks || v2.ChunkDuration != v.ChunkDuration || !reflect.DeepEqual(v2.Levels, v.Levels) {
			t.Fatalf("reconstructed video mismatch: %+v", v2)
		}
		for li := range v.Levels {
			for c := 0; c < v.NumChunks; c++ {
				if sizes[li][c] != v.ChunkSize(c, li) {
					t.Fatalf("manifest size level %d chunk %d: %d != %d", li, c, sizes[li][c], v.ChunkSize(c, li))
				}
			}
		}
	}
}

// TestManifestBandwidthRounds: @bandwidth is the rung's rate rounded to
// the nearest bit/s. A product just under a whole number, such as
// 1.001 × 1e6 = 1000999.9999999999, used to lose a bit/s.
func TestManifestBandwidthRounds(t *testing.T) {
	for _, c := range []struct {
		mbps float64
		want int64
	}{
		{1.001, 1001000},
		{0.58, 580000},
		{10.0, 10000000},
		{16 * 1024 * 8 / 4.0 / 1e6, 32768},
		{0.0000004, 0},
		{0.0000006, 1},
	} {
		v := &Video{ChunkDuration: time.Second, NumChunks: 1, Levels: []Level{{ID: 1, AvgBitrateMbps: c.mbps}}}
		if got := v.Manifest().Period.AdaptationSet.Representations[0].Bandwidth; got != c.want {
			t.Errorf("%v Mbps: bandwidth %d, want %d", c.mbps, got, c.want)
		}
	}
}

// TestManifestKeepsRatesAndDurations: Manifest → EncodeMPD → DecodeMPD →
// VideoFromManifest gives back every whole-millisecond chunk duration up
// to 10 s and every whole-kbps rung up to 20 Mbps exactly.
func TestManifestKeepsRatesAndDurations(t *testing.T) {
	roundTrip := func(v *Video) *Video {
		t.Helper()
		b, err := EncodeMPD(v.Manifest())
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeMPD(b)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := VideoFromManifest(m, v.Name)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	rungs := &Video{ChunkDuration: time.Second, NumChunks: 1}
	for kbps := 1; kbps <= 20000; kbps++ {
		rungs.Levels = append(rungs.Levels, Level{ID: kbps, AvgBitrateMbps: float64(kbps) / 1000})
	}
	for i, l := range roundTrip(rungs).Levels {
		if want := rungs.Levels[i].AvgBitrateMbps; l.AvgBitrateMbps != want {
			t.Errorf("rung %v Mbps came back as %v", want, l.AvgBitrateMbps)
		}
	}
	for ms := 1; ms <= 10000; ms++ {
		v := &Video{ChunkDuration: time.Duration(ms) * time.Millisecond, NumChunks: 1, Levels: []Level{{ID: 1, AvgBitrateMbps: 1}}}
		if got := roundTrip(v).ChunkDuration; got != v.ChunkDuration {
			t.Errorf("chunk duration %v came back as %v", v.ChunkDuration, got)
		}
	}
}

func TestDecodeMPDErrors(t *testing.T) {
	if _, err := DecodeMPD([]byte("not xml at all <")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := VideoFromManifest(&MPD{}, "x"); err == nil {
		t.Error("empty manifest accepted")
	}
}

// TestVideoFromManifestRejectsNonPositiveSize: a segment size of zero or
// less would hand the fetcher a chunk with no bytes to verify, or a
// negative segment count it never finishes.
func TestVideoFromManifestRejectsNonPositiveSize(t *testing.T) {
	for _, size := range []int64{0, -1, -100000} {
		m := BigBuckBunny().Manifest()
		seg := &m.Period.AdaptationSet.Representations[2].Segments[7]
		seg.Size = size
		_, _, err := VideoFromManifest(m, "x")
		if err == nil {
			t.Fatalf("size %d accepted", size)
		}
		if want := fmt.Sprintf("representation 3 segment 7 (%q) has size %d", seg.Media, size); !strings.Contains(err.Error(), want) {
			t.Errorf("size %d: error %q does not name %q", size, err, want)
		}
	}
}

// TestManifestAllocs pins the allocations of encoding and decoding the
// benchmark-shaped manifest (DESIGN.md §11): the encode is one buffer
// sized up front; the decode is one copy of the input, the MPD, and the
// growth of the representation and segment slices. encoding/xml made
// 2,340 and 13,223 allocations of them.
func TestManifestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := benchShapedVideo().Manifest()
	doc, _ := EncodeMPD(m)
	for _, c := range []struct {
		name                  string
		op                    func()
		baseAllocs, baseBytes float64
	}{
		{"EncodeMPD", func() { EncodeMPD(m) }, 1, 65536},
		{"DecodeMPD", func() { DecodeMPD(doc) }, 33, 113097},
	} {
		a, b := memPerRun(20, c.op)
		allocs, bytes := float64(a), float64(b)
		if allocs > c.baseAllocs*1.15 || bytes > c.baseBytes*1.15 {
			t.Errorf("%s: %v allocs, %v B per op; want at most %v and %v (base × 1.15)",
				c.name, allocs, bytes, c.baseAllocs*1.15, c.baseBytes*1.15)
		}
	}
}

// memPerRun counts op's mallocs and bytes per run on one P.
func memPerRun(runs int, op func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	op()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkEncodeMPD and BenchmarkDecodeMPD time the codec on the
// benchmark-shaped manifest against the encoding/xml oracle.
func BenchmarkEncodeMPD(b *testing.B) {
	m := benchShapedVideo().Manifest()
	for _, c := range []struct {
		name   string
		encode func(*MPD) ([]byte, error)
	}{{"append", EncodeMPD}, {"oracle", refEncodeMPD}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.encode(m)
			}
		})
	}
}

func BenchmarkDecodeMPD(b *testing.B) {
	doc, _ := EncodeMPD(benchShapedVideo().Manifest())
	for _, c := range []struct {
		name   string
		decode func([]byte) (*MPD, error)
	}{{"scan", DecodeMPD}, {"oracle", refDecodeMPD}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzDecodeMPD feeds arbitrary bytes through DecodeMPD, the path a
// manifest read off a socket takes, against encoding/xml: a manifest the
// scanner accepts must be one the oracle accepts, decoded alike. One
// VideoFromManifest then accepts must describe a valid video with one
// positive size per segment of every level.
func FuzzDecodeMPD(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMPD(b)
		if err != nil {
			return
		}
		want, err := refDecodeMPD(b)
		if err != nil {
			t.Fatalf("accepted what encoding/xml refuses: %v", err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("decoded\n%+v\nencoding/xml decoded\n%+v", m, want)
		}
		v, sizes, err := VideoFromManifest(m, "fuzz")
		if err != nil {
			return
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("accepted an invalid video: %v", err)
		}
		if len(sizes) != len(v.Levels) {
			t.Fatalf("%d size rows for %d levels", len(sizes), len(v.Levels))
		}
		for l, row := range sizes {
			if len(row) != v.NumChunks {
				t.Fatalf("level %d has %d sizes for %d chunks", l, len(row), v.NumChunks)
			}
			for c, s := range row {
				if s <= 0 {
					t.Fatalf("level %d chunk %d has size %d", l, c, s)
				}
			}
		}
	})
}

// FuzzEncodeMPD builds a manifest from the fuzzer's values: up to three
// representations of up to four segments, whose media names and numbers
// derive from the inputs. EncodeMPD must write MarshalIndent's bytes, and
// DecodeMPD must read them as the oracle does: back into the manifest
// itself unless a string held what XML cannot carry (invalid UTF-8 or a
// character outside Char, written as U+FFFD) or the duration is NaN.
func FuzzEncodeMPD(f *testing.F) {
	f.Add("urn:mpeg:dash:profile:isoff-main:2011", "static", "PT0H10M0.000S", "video/mp4", 4.0, uint8(3), uint8(2), "seg-l1-c0000.m4s", int64(580000))
	f.Add(`a"b'c&d<e>f`, "\t\n\r", "\xff", "]]>", math.Inf(1), uint8(1), uint8(4), "\x00é", int64(-1))
	f.Fuzz(func(t *testing.T, profiles, typ, dur, mime string, segDur float64, reps, segs uint8, media string, n int64) {
		m := &MPD{Profiles: profiles, Type: typ, MediaPresentationDuration: dur}
		as := &m.Period.AdaptationSet
		as.MimeType, as.SegmentDuration = mime, segDur
		for r := 0; r < int(reps%4); r++ {
			rep := Representation{ID: int(n>>r) - r, Bandwidth: n * int64(r+1)}
			for s := 0; s < int(segs>>(2*r)%5); s++ {
				rep.Segments = append(rep.Segments, Segment{Media: media + string(rune('0'+s)), Size: n ^ int64(s)})
			}
			as.Representations = append(as.Representations, rep)
		}
		got, _ := EncodeMPD(m)
		want, err := refEncodeMPD(m)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeMPD differs from MarshalIndent at byte %d:\n%q\n%q", firstDiff(got, want), got, want)
		}
		back, err := DecodeMPD(got)
		if err != nil {
			t.Fatalf("DecodeMPD refuses EncodeMPD's output: %v\n%q", err, got)
		}
		oracle, err := refDecodeMPD(got)
		if err != nil {
			t.Fatalf("oracle refuses EncodeMPD's output: %v", err)
		}
		if !reflect.DeepEqual(back, oracle) {
			t.Fatalf("decoded\n%+v\nencoding/xml decoded\n%+v", back, oracle)
		}
		for _, s := range []string{profiles, typ, dur, mime, media} {
			if !xmlText(s) {
				return
			}
		}
		if !math.IsNaN(segDur) && !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip\n%+v\ngave\n%+v", m, back)
		}
	})
}

// xmlText reports whether XML can carry s as it is.
func xmlText(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if !isXMLChar(r) {
			return false
		}
	}
	return true
}
