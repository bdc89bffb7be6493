package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// checkParse asserts ParseReading(line) is json.Unmarshal(line): the
// same value bit for bit, the same error or none, the same error text.
func checkParse(t *testing.T, line []byte) {
	t.Helper()
	got, gerr := ParseReading(line)
	var want Reading
	werr := json.Unmarshal(line, &want)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("ParseReading(%q) error %v, json.Unmarshal error %v", line, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("ParseReading(%q) error text %q, json.Unmarshal %q", line, gerr, werr)
	case !sameReading(got, want):
		t.Fatalf("ParseReading(%q) = %+v, json.Unmarshal = %+v", line, got, want)
	}
}

// checkAppend asserts AppendReading(prefix, rd) is prefix followed by
// json.Marshal(rd), that both refuse the same readings, and that a
// successful encoding parses back to rd (json.Marshal replaces
// invalid UTF-8 in an EPC, so only a valid one comes back unchanged).
func checkAppend(t *testing.T, rd Reading) {
	t.Helper()
	prefix := []byte("x")
	got, gerr := AppendReading(prefix, rd)
	want, werr := json.Marshal(rd)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("AppendReading(%+v) error %v, json.Marshal error %v", rd, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() || string(got) != "x" {
			t.Fatalf("AppendReading(%+v) = %q, %v; json.Marshal error %v", rd, got, gerr, werr)
		}
		return
	}
	if string(got) != "x"+string(want) {
		t.Fatalf("AppendReading(%+v) = %q, json.Marshal = %q", rd, got[1:], want)
	}
	checkParse(t, got[1:])
	if back, err := ParseReading(got[1:]); utf8.ValidString(rd.EPC) && (err != nil || !sameReading(back, rd)) {
		t.Fatalf("ParseReading(AppendReading(%+v)) = %+v, %v", rd, back, err)
	}
}

// sameReading compares readings bit for bit, so -0 and 0 differ.
func sameReading(a, b Reading) bool {
	return a.EPC == b.EPC && a.Antenna == b.Antenna && a.Channel == b.Channel && a.T == b.T &&
		math.Float64bits(a.FreqHz) == math.Float64bits(b.FreqHz) &&
		math.Float64bits(a.Phase) == math.Float64bits(b.Phase) &&
		math.Float64bits(a.RSSI) == math.Float64bits(b.RSSI)
}

// codecLineSeeds straddle ParseReading's fast-path switch.
var codecLineSeeds = []string{
	`{"epc":"E200-0001","antenna":1,"channel":7,"freqHz":905250000,"phase":4.312,"rssi":-52.5,"t":1200000}`,
	`{"antenna":0,"channel":0,"freqHz":0,"phase":0,"rssi":0,"t":0}`,
	`{"epc":"","antenna":0,"channel":0,"freqHz":0,"phase":0,"rssi":0,"t":0}`,
	`{"epc":"A","antenna":1.0,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":1e3}`,
	`{"EPC":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","epc":"B","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0,"t":5}`,
	`{"epc":"A\"B","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A\u00e9","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"Aé","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"<&>","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	"{\"epc\":\"A\x01\",\"antenna\":1,\"channel\":7,\"freqHz\":9e8,\"phase\":1,\"rssi\":-50,\"t\":0}",
	`{"epc":"A","antenna":-0,"channel":7,"freqHz":-0,"phase":-0.0,"rssi":-50,"t":-0}`,
	`{"epc":"A","antenna":01,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":1e400,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":1e-400,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":99999999999999999999,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9E+8,"phase":1.5e-7,"rssi":-5e-324,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1.,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":.5,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":null,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A", "antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0} `,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50}`,
	`{"epc":"A","antenna":1,"chan`,
	`{"epc":"A","channel":0,"phase":1e999}`,
	`{"epc":"A","antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0,"x":1}`,
	`{"epc":7,"antenna":1,"channel":7,"freqHz":9e8,"phase":1,"rssi":-50,"t":0}`,
	`[1,2,3]`,
	`null`,
	``,
}

// codecReadingSeeds cover encoding/json's float-format boundaries
// (1e-6 and 1e21, subnormals, -0), EPCs it must escape and
// non-finite fields it refuses.
var codecReadingSeeds = []Reading{
	{EPC: "E200-0001", Antenna: 1, Channel: 7, FreqHz: 905.25e6, Phase: 4.312, RSSI: -52.5, T: 1200 * time.Millisecond},
	{},
	{EPC: "A", FreqHz: 1e-6, Phase: math.Nextafter(1e-6, 0), RSSI: -1e-7},
	{EPC: "A", FreqHz: 1e21, Phase: math.Nextafter(1e21, 0), RSSI: -1e21},
	{EPC: "A", FreqHz: 5e-324, Phase: 2.2250738585072009e-308, RSSI: -math.SmallestNonzeroFloat64},
	{EPC: "A", FreqHz: math.Copysign(0, -1), Phase: math.MaxFloat64, RSSI: 1e-9},
	{EPC: "A\"B\\C", Antenna: -3, Channel: math.MaxInt32, T: math.MinInt64},
	{EPC: "<tag&co>", T: math.MaxInt64},
	{EPC: "A\x01\x7f", Antenna: math.MinInt64},
	{EPC: "Aé\u2028\xff"},
	{EPC: "A", Phase: math.NaN()},
	{EPC: "A", RSSI: math.Inf(-1)},
	{EPC: "\xff", FreqHz: math.Inf(1)},
}

// TestReadingCodecMatchesEncodingJSON is the differential check on a
// seeded population: random readings whose floats span the format
// boundaries, their encodings, and single-byte mutations of those.
func TestReadingCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Float64frombits(rng.Uint64()) // any bit pattern
		case 1:
			return 0
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			return math.Round(rng.NormFloat64()*1e4) / 1e3 // quantized like a reader
		}
	}
	const alphabet = "AZaz09-_ \"\\<>&\x01\x7fé"
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		epc := []byte("E200")
		for k := rng.Intn(4); k > 0; k-- {
			epc = append(epc, alphabet[rng.Intn(len(alphabet))])
		}
		if rng.Intn(10) == 0 {
			epc = epc[:0]
		}
		rd := Reading{
			EPC: string(epc), Antenna: rng.Intn(9) - 1, Channel: rng.Intn(60) - 5,
			FreqHz: float(), Phase: float(), RSSI: float(), T: time.Duration(rng.Int63n(1e11)),
		}
		checkAppend(t, rd)
		line, err := json.Marshal(rd)
		if err != nil {
			continue
		}
		checkParse(t, line)
		mut := append([]byte(nil), line...)
		mut[rng.Intn(len(mut))] = "0123456789.-+eE,:{}\" aT"[rng.Intn(23)]
		checkParse(t, mut)
		checkParse(t, mut[:rng.Intn(len(mut))])
	}
}

// TestReadingCodecAllocs pins the fast paths' allocation budget: the
// decoded EPC string on parse, nothing on append into spare capacity.
func TestReadingCodecAllocs(t *testing.T) {
	rd := codecReadingSeeds[0]
	buf, err := AppendReading(make([]byte, 0, 256), rd)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { buf, _ = AppendReading(buf[:0], rd) }); n != 0 {
		t.Errorf("AppendReading: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = ParseReading(buf) }); n != 1 {
		t.Errorf("ParseReading: %v allocs, want 1 (the EPC)", n)
	}
}

// FuzzReadingCodec checks the report codec against encoding/json:
// ParseReading must equal json.Unmarshal on every line (value, error
// or not, error text) and AppendReading must equal json.Marshal byte
// for byte on every reading, refusing the non-finite ones as it does.
func FuzzReadingCodec(f *testing.F) {
	for _, line := range codecLineSeeds {
		f.Add([]byte(line), "", 0, 0, 0.0, 0.0, 0.0, int64(0))
	}
	for _, rd := range codecReadingSeeds {
		line, _ := json.Marshal(rd)
		f.Add(line, rd.EPC, rd.Antenna, rd.Channel, rd.FreqHz, rd.Phase, rd.RSSI, int64(rd.T))
	}
	f.Add([]byte(strings.Repeat("9", 400)), strings.Repeat("Z", 300), 1, 2, 1e300, -1e-300, 0.1, int64(-1))
	f.Fuzz(func(t *testing.T, line []byte, epc string, ant, ch int, freq, phase, rssi float64, at int64) {
		checkParse(t, line)
		checkAppend(t, Reading{EPC: epc, Antenna: ant, Channel: ch, FreqHz: freq, Phase: phase, RSSI: rssi, T: time.Duration(at)})
	})
}

// BenchmarkReadingCodec compares the codec with the encoding/json
// calls it stands in for, on one canonical report line.
func BenchmarkReadingCodec(b *testing.B) {
	rd := codecReadingSeeds[0]
	line, _ := json.Marshal(rd)
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseReading(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got Reading
			if err := json.Unmarshal(line, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendReading(buf[:0], rd)
		}
	})
	b.Run("append/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(rd)
		}
	})
}
