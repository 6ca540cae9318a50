package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestDemandCSVRoundTrip(t *testing.T) {
	cfg := Config{
		Classes:    []int{2, 3},
		K:          4,
		T:          3,
		Zipf:       ZipfMandelbrot{K: 4, Alpha: 1, Q: 1},
		MaxDensity: 5,
		Jitter:     0.2,
		Seed:       6,
	}
	d, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDemandCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDemandCSV(&buf, 3, []int{2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 3; tt++ {
		for n := 0; n < 2; n++ {
			for m := 0; m < cfg.Classes[n]; m++ {
				for k := 0; k < 4; k++ {
					if got.At(tt, n, m, k) != d.At(tt, n, m, k) {
						t.Fatalf("round trip changed rate at (%d,%d,%d,%d)", tt, n, m, k)
					}
				}
			}
		}
	}
}

func TestReadDemandCSVErrors(t *testing.T) {
	header := "t,sbs,class,content,rate\n"
	cases := map[string]string{
		"bad header":    "a,b,c,d,e\n",
		"bad int":       header + "x,0,0,0,1\n",
		"bad rate":      header + "0,0,0,0,zap\n",
		"neg rate":      header + "0,0,0,0,-1\n",
		"slot range":    header + "9,0,0,0,1\n",
		"sbs range":     header + "0,9,0,0,1\n",
		"class range":   header + "0,0,9,0,1\n",
		"content range": header + "0,0,0,9,1\n",
		"short record":  header + "0,0,0\n",
	}
	for name, data := range cases {
		if _, err := ReadDemandCSV(strings.NewReader(data), 2, []int{1}, 2); err == nil {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

func TestReadDemandCSVSparse(t *testing.T) {
	data := "t,sbs,class,content,rate\n1,0,0,1,2.5\n"
	d, err := ReadDemandCSV(strings.NewReader(data), 2, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(1, 0, 0, 1) != 2.5 || d.At(0, 0, 0, 0) != 0 {
		t.Fatal("sparse read incorrect")
	}
}
