package store

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"metricdb/internal/vec"
)

// FuzzPageDecode throws arbitrary bytes at the page-record decoder. The
// contract under fuzzing: never panic, never over-allocate from a
// corrupt header, and on success uphold the structural invariants
// (re-encoding the decoded page reproduces the input bit for bit, so no
// two distinct valid records decode to the same page).
func FuzzPageDecode(f *testing.F) {
	// Seed corpus: valid records of several shapes plus near-miss
	// mutations, so the fuzzer starts at the interesting boundaries.
	seed := func(n, dim int) []byte {
		items := make([]Item, n)
		for i := range items {
			v := make(vec.Vector, dim)
			for d := range v {
				v[d] = float64(i)*0.5 - float64(d)
			}
			items[i] = Item{ID: ItemID(i), Vec: v, Label: i - 1}
		}
		rec, err := EncodePage(&Page{ID: 3, Items: items}, dim)
		if err != nil {
			f.Fatal(err)
		}
		return rec
	}
	f.Add([]byte{})
	f.Add(seed(0, 0))
	f.Add(seed(1, 1))
	f.Add(seed(16, 4))
	f.Add(seed(5, 20))
	long := seed(16, 4)
	long[0] ^= 1 // broken magic
	f.Add(long)
	trunc := seed(16, 4)
	f.Add(trunc[:len(trunc)-7])
	huge := seed(1, 1)
	huge[8] = 0xFF // implausible item count
	huge[9] = 0xFF
	huge[10] = 0xFF
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePage(data)
		if err != nil {
			if p != nil {
				t.Fatal("decoder returned both a page and an error")
			}
			return
		}
		if p == nil {
			t.Fatal("decoder returned neither page nor error")
		}
		if p.ID < 0 {
			t.Fatalf("decoded negative page ID %d", p.ID)
		}
		// The record's dimensionality: from the items when present, from
		// the header for an empty page (the items carry no evidence).
		dim := int(uint32(data[12]) | uint32(data[13])<<8 | uint32(data[14])<<16 | uint32(data[15])<<24)
		if len(p.Items) > 0 {
			dim = p.Items[0].Vec.Dim()
		}
		for i := range p.Items {
			if p.Items[i].Vec.Dim() != dim {
				t.Fatal("decoded page mixes dimensionalities")
			}
		}
		re, err := EncodePage(p, dim)
		if err != nil {
			t.Fatalf("re-encode of decoded page failed: %v", err)
		}
		if string(re) != string(data) {
			t.Fatal("decode/encode round trip altered the record")
		}
	})
}

// FuzzColumnarPageDecode targets the version-2 (columnar) page-record
// decoder. Same contract as FuzzPageDecode — never panic, never allocate
// from an unvalidated size — plus the columnar structural invariants: an
// accepted record sets no flag and yields a block whose rows the item
// vectors alias, and re-encoding reproduces the input bit for bit. The
// seeds with sibling sections are records of the retired float32/quant
// layout (see legacyRecord), which must all be rejected.
func FuzzColumnarPageDecode(f *testing.F) {
	seed := func(n, dim int, f32 bool, qbits int) []byte {
		return legacyRecord(f, &Page{ID: 7, Items: testItems(n, dim)}, dim, f32, qbits)
	}
	f.Add([]byte{})
	f.Add(seed(0, 3, false, 0))
	f.Add(seed(1, 1, false, 0))
	f.Add(seed(16, 4, false, 0))
	f.Add(seed(16, 4, true, 0))
	f.Add(seed(16, 4, false, 6))
	f.Add(seed(16, 4, true, 8))
	f.Add(seed(5, 20, true, 1))
	badFlags := seed(16, 4, true, 0)
	badFlags[16] |= 4 // unknown flag bit
	f.Add(badFlags)
	trunc := seed(16, 4, true, 6)
	f.Add(trunc[:len(trunc)-9])
	huge := seed(1, 1, false, 0)
	huge[8] = 0xFF // implausible item count
	huge[9] = 0xFF
	huge[10] = 0xFF
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePage(data)
		if err != nil {
			if p != nil {
				t.Fatal("decoder returned both a page and an error")
			}
			return
		}
		if p == nil {
			t.Fatal("decoder returned neither page nor error")
		}
		if len(data) < 16 || binary.LittleEndian.Uint32(data[0:4]) != pageMagic2 {
			return // version-1 record; FuzzPageDecode owns those invariants
		}
		b := p.Cols
		if b == nil {
			t.Fatal("columnar record decoded without a block")
		}
		if flags := binary.LittleEndian.Uint32(data[16:24]); flags != 0 {
			t.Fatalf("accepted a record with flags/reserved word %#x", flags)
		}
		dim := int(binary.LittleEndian.Uint32(data[12:16]))
		if b.Dim != dim || b.N != len(p.Items) {
			t.Fatalf("block is %d×%d, record header says %d items × dim %d", b.N, b.Dim, len(p.Items), dim)
		}
		if len(b.F64) != b.N*b.Dim {
			t.Fatal("block buffer length disagrees with its shape")
		}
		for i := range p.Items {
			if dim > 0 && &p.Items[i].Vec[0] != &b.Item(i)[0] {
				t.Fatalf("item %d vector does not alias its block row", i)
			}
		}
		re, err := EncodePage(p, dim)
		if err != nil {
			t.Fatalf("re-encode of decoded page failed: %v", err)
		}
		if string(re) != string(data) {
			t.Fatal("decode/encode round trip altered the record")
		}
	})
}

// FuzzManifestDecode throws arbitrary bytes at the manifest decoder: never
// panic, and any accepted manifest satisfies the structural invariants the
// FileDisk relies on (contiguous entries, consistent sums, a page file
// name that cannot escape the dataset directory).
func FuzzManifestDecode(f *testing.F) {
	valid := func(n, dim, capacity int) []byte {
		pages, err := Paginate(testItems(n, dim), capacity)
		if err != nil {
			f.Fatal(err)
		}
		man := Manifest{
			Magic: ManifestMagic, Version: FormatVersion, Generation: 2,
			Items: n, Dim: dim, PageCapacity: capacity,
			PagesFile: "pages-g00000002.dat",
			Attrs:     map[string]string{"kind": "fuzz"},
		}
		for _, p := range pages {
			rec, err := EncodePage(p, dim)
			if err != nil {
				f.Fatal(err)
			}
			man.Pages = append(man.Pages, PageEntry{
				Offset: man.PagesBytes, Length: int64(len(rec)),
				Items: len(p.Items), CRC32C: crcOf(rec),
			})
			man.PagesBytes += int64(len(rec))
		}
		body, err := EncodeManifest(&man)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	// Seeds in the retired float32/quant layout, which must be rejected.
	legacyV2 := func(n, dim, capacity, qbits int) []byte {
		manifest, _ := legacyDataset(f, testItems(n, dim), dim, capacity, true, qbits)
		return manifest
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"magic":"metricdb-dataset-dir","version":1}`))
	f.Add(valid(0, 0, 4))
	f.Add(valid(40, 4, 16))
	f.Add(valid(7, 2, 3))
	f.Add(legacyV2(12, 3, 5, 0))
	f.Add(legacyV2(12, 3, 5, 6))
	evil := valid(7, 2, 3)
	f.Add([]byte(string(evil)[:len(evil)/2]))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if m.Magic != ManifestMagic || (m.Version != FormatVersion && m.Version != FormatVersionColumnar) {
			t.Fatal("accepted manifest with wrong magic or version")
		}
		if m.Version == FormatVersion && m.Columnar {
			t.Fatal("accepted version-1 manifest claiming columnar fields")
		}
		if m.Version == FormatVersionColumnar && !m.Columnar {
			t.Fatal("accepted version-2 manifest without the columnar flag")
		}
		var keys map[string]json.RawMessage
		if json.Unmarshal(data, &keys) == nil && (keys["f32"] != nil || keys["quant"] != nil) {
			t.Fatal("accepted manifest carrying a retired layout key")
		}
		if m.Items < 0 || m.Dim < 0 || m.PageCapacity < 0 || m.Generation < 0 {
			t.Fatal("accepted manifest with negative shape")
		}
		var end, items int64
		for _, e := range m.Pages {
			if e.Offset != end || e.Items < 0 {
				t.Fatal("accepted non-contiguous or negative page entry")
			}
			end += e.Length
			items += int64(e.Items)
		}
		if end != m.PagesBytes || items != int64(m.Items) {
			t.Fatal("accepted manifest with inconsistent sums")
		}
		if len(m.Pages) > 0 {
			for _, c := range m.PagesFile {
				if c == '/' || c == '\\' {
					t.Fatalf("accepted page file path %q", m.PagesFile)
				}
			}
		}
		if int64(m.Items)*int64(16+8*m.Dim) > math.MaxInt64/2 {
			t.Fatal("accepted manifest implying overflowing dataset size")
		}
	})
}
