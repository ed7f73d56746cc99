package report

import (
	"strings"
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// newReport assembles a report valid over "2006-10-01" style dates.
func newReport(tag string, typ Type, class Class, from, to, method string, addrs ipset.Set) *Report {
	return &Report{Tag: tag, Type: typ, Class: class, ValidFrom: mustDate(from), ValidTo: mustDate(to),
		Method: method, Addrs: addrs}
}

func mustDate(s string) time.Time {
	d, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(err)
	}
	return d
}

func sampleReport() *Report {
	return newReport("bot", Provided, ClassBots, "2006-10-01", "2006-10-14",
		"Bot addresses acquired through private reports",
		ipset.MustParse("12.1.1.1 12.1.1.2 200.5.6.7"))
}

func TestClassRoundTrip(t *testing.T) {
	for c := ClassNone; c <= ClassSpecial; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass of garbage should fail")
	}
	if Class(99).String() != "Unknown" {
		t.Error("out-of-range class name")
	}
}

func TestTypeRoundTrip(t *testing.T) {
	for _, typ := range []Type{Provided, Observed} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseType("nope"); err == nil {
		t.Error("ParseType of garbage should fail")
	}
}

func TestValidity(t *testing.T) {
	r := sampleReport()
	if got := r.Validity(); got != "2006/10/01-2006/10/14" {
		t.Errorf("Validity = %q", got)
	}
	single := newReport("bot-test", Provided, ClassBots, "2006-05-10", "2006-05-10", "", ipset.Set{})
	if got := single.Validity(); got != "2006/05/10" {
		t.Errorf("single-day Validity = %q", got)
	}
}

func TestSize(t *testing.T) {
	if r := sampleReport(); r.Size() != 3 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestSanitize(t *testing.T) {
	r := newReport("x", Observed, ClassScanning, "2006-10-01", "2006-10-14", "",
		ipset.MustParse("10.0.0.1 192.168.1.1 12.1.1.1 131.10.2.3 224.0.0.9"))
	observed := []netaddr.Block{netaddr.MustParseBlock("131.10.0.0/16")}
	clean := r.Sanitize(observed)
	if clean.Size() != 1 || !clean.Addrs.Contains(netaddr.MustParseAddr("12.1.1.1")) {
		t.Fatalf("Sanitize = %v", clean.Addrs)
	}
	// Original untouched.
	if r.Size() != 5 {
		t.Fatal("Sanitize mutated the original report")
	}
	// Nil observed network list: only reserved filtering.
	clean2 := r.Sanitize(nil)
	if clean2.Size() != 2 {
		t.Fatalf("Sanitize(nil) size = %d, want 2", clean2.Size())
	}
}

func TestReportString(t *testing.T) {
	s := sampleReport().String()
	for _, want := range []string{"R_bot", "Provided", "Bots", "|R|=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf strings.Builder
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != r.Tag || got.Type != r.Type || got.Class != r.Class ||
		!got.ValidFrom.Equal(r.ValidFrom) || !got.ValidTo.Equal(r.ValidTo) ||
		got.Method != r.Method || !got.Addrs.Equal(r.Addrs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "# something else\ntag: x\n",
		"bad header":  "# unclean report v1\nnonsense\naddresses:\n",
		"unknown key": "# unclean report v1\ntag: x\nbogus: 1\naddresses:\n",
		"bad type":    "# unclean report v1\ntag: x\ntype: Stolen\naddresses:\n",
		"bad class":   "# unclean report v1\ntag: x\nclass: Wizardry\naddresses:\n",
		"bad date":    "# unclean report v1\ntag: x\nfrom: 01-10-2006\naddresses:\n",
		"bad address": "# unclean report v1\ntag: x\nfrom: 2006-10-01\nto: 2006-10-02\naddresses:\n12.1.1\n",
		"no body":     "# unclean report v1\ntag: x\nfrom: 2006-10-01\nto: 2006-10-02\n",
		"no tag":      "# unclean report v1\nfrom: 2006-10-01\nto: 2006-10-02\naddresses:\n",
		"to before":   "# unclean report v1\ntag: x\nfrom: 2006-10-05\nto: 2006-10-02\naddresses:\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	input := "# unclean report v1\n\n# a comment\ntag: x\nfrom: 2006-10-01\nto: 2006-10-02\naddresses:\n# body comment\n\n1.2.3.4\n"
	r, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 {
		t.Fatalf("Size = %d, want 1", r.Size())
	}
}

func TestInventory(t *testing.T) {
	inv := &Inventory{Title: "Unclean reports"}
	inv.Add(sampleReport())
	inv.Add(newReport("scan", Observed, ClassScanning, "2006-10-01", "2006-10-14",
		"IP addresses scanning the observed network", ipset.MustParse("7.7.7.7")))
	if inv.Get("scan") == nil || inv.Get("nope") != nil {
		t.Fatal("Get lookup wrong")
	}
	if inv.MustGet("bot").Tag != "bot" {
		t.Fatal("MustGet wrong")
	}
	table := inv.Table()
	for _, want := range []string{"Unclean reports", "Tag", "bot", "scan", "Observed", "Scanning"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustGet on missing tag did not panic")
			}
		}()
		inv.MustGet("missing")
	}()
}

func TestInventoryAddrs(t *testing.T) {
	inv := &Inventory{}
	if !inv.Addrs().IsEmpty() {
		t.Fatal("empty inventory has addresses")
	}
	inv.Add(sampleReport()) // 12.1.1.1 12.1.1.2 200.5.6.7
	inv.Add(newReport("scan", Observed, ClassScanning, "2006-10-01", "2006-10-14",
		"scanners", ipset.MustParse("12.1.1.2 7.7.7.7")))
	got := inv.Addrs()
	// The union view: overlap between reports collapses.
	if got.Len() != 4 {
		t.Fatalf("Addrs len = %d, want 4", got.Len())
	}
	for _, a := range []string{"12.1.1.1", "12.1.1.2", "200.5.6.7", "7.7.7.7"} {
		if !got.Contains(netaddr.MustParseAddr(a)) {
			t.Errorf("Addrs missing %s", a)
		}
	}
}

func TestGroupDigits(t *testing.T) {
	cases := map[int]string{
		0: "0", 5: "5", 999: "999", 1000: "1,000", 621861: "621,861",
		46899928: "46,899,928", -1234: "-1,234",
	}
	for in, want := range cases {
		if got := groupDigits(in); got != want {
			t.Errorf("groupDigits(%d) = %q, want %q", in, got, want)
		}
	}
}
