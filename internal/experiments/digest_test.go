package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestRenderDigests pins the rendered text of every experiment, the
// paper's artifacts and the extensions, at Quick() scale for the
// benchmark's two golden seeds, so a change to how an experiment computes
// its answer cannot change the answer.
func TestRenderDigests(t *testing.T) {
	want := map[uint64]map[string]string{
		20061001: {
			"table1":   "d43060d881dbce8f5f5f1b9e432cb02712fc10645ec6e70f00fb349c5382af50",
			"fig1":     "665a9123fa3fee8af36dfe708dd5a39bd3cde8136511efef8a0d53df560b3070",
			"fig2":     "d1fa6afd516af810054ded812f38c89082a51c53f3187cba05f2e5a7fbad8f71",
			"fig3":     "bffbf68a6ec1cd86db8d54a3d9e2a548354edc99a17a7405ef7b39c3ca583300",
			"fig4":     "360cac1a9ebefb58dfdfcd30b53101dc2eb78cda520138dd471b155947ccd71d",
			"fig5":     "6ea2b7307e21d9bca8669cd79a2faebbe3ff549981e11fba4f80f3783b7321a0",
			"table2":   "f9d78f3bd05f8214060d91a9cdcf9d0b8a5fedcc5859acde7408c389d368a18d",
			"table3":   "9f620558993dbddcd5a61c01a8414578095b04f472772d0397fb8c1a39a83db5",
			"locality": "cd000bf61c833eeff792bc08bb692d04fabcb1d379ac8f7030028e2ebcc37b2f",
			"tracker":  "a3e6111d62ca9a5e286e3e68690cc0fb4becb4de89542c9b5eb0a324c9d1e825",
			"overlap":  "9c31c220da1953db46aea32b8a719aace27b5682f071806ae588da656c555f90",
			"fig1d":    "4136968819b2d3cfae208c9238cbdfca0c815315aaa8342d16e8ea4cdaaf5224",
		},
		424242: {
			"table1":   "9733b0b985510d733359707b62d300ea49b7224359cc9641ea30267e83cc4c9a",
			"fig1":     "4f9fd09ec92f3adeb13b3424d025eff109124c25f0c6271800c0a53b6100e290",
			"fig2":     "3bed2d04004597e0a34e4a830d59d93a18fb404fbdf2f5331565ae2b64d708f9",
			"fig3":     "445adeea3409ac431dc19a4d9ee7ec9fd9fefc58e6f34ec19d5afff3b512544a",
			"fig4":     "7065b0ef44cf28ea9a4284332216bf1aa82d0741e9876de1ccbbb0cd2dc431ed",
			"fig5":     "bcc75eb0c1ef3a3633d02225f6dc8189d424ac455a975b7b81ed495dab988c09",
			"table2":   "ac7e6a7e5284b3c578557e1b56ea497405fc43b7eb1451acd1a571998fdc4a37",
			"table3":   "e31f986866e6c92cc42a75570798cf6b941fcee3840068c2620712a634c9cec5",
			"locality": "358e804d6116e519a8add05f20baeae9cb4ff90525ea4773fe08d21d1363f353",
			"tracker":  "34a5b28151e872cd3aa821569e8a09ef472cd8643286c3c97327b0e65b469f8e",
			"overlap":  "36c420adef6897d334f4f99bdf6f7f526409df21650323528dd641c1202e9370",
			"fig1d":    "0817388fd0664d05572121450ab64a7ebcfdd4ff172c515e047bcfef11386673",
		},
	}
	for _, seed := range []uint64{20061001, 424242} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ds *Dataset
			if seed == Quick().Seed {
				ds = getDataset(t)
			} else {
				cfg := Quick()
				cfg.Seed = seed
				var err error
				if ds, err = Build(cfg); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range append(IDs(), ExtraIDs()...) {
				res, err := Run(ds, id)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				sum := sha256.Sum256([]byte(res.Render()))
				if got := hex.EncodeToString(sum[:]); got != want[seed][id] {
					t.Errorf("%s: render digest %s, want %s", id, got, want[seed][id])
				}
			}
		})
	}
}
