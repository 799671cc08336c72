package bn256

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"
)

// hashGoldenInput is the i-th input of the HashToG1 golden set: lengths walk
// 0..130 (across the SHA-256 block boundaries), contents are a fixed pattern.
func hashGoldenInput(i int) []byte {
	in := make([]byte, (i*7)%131)
	for j := range in {
		in[j] = byte(i + j*31)
	}
	return in
}

// hashGolden[i] is HashToG1(hashGoldenInput(i)).MarshalCompressed() as
// printed by the commit before the Legendre-filtered, windowed
// implementation (two full exponentiations per rejected candidate,
// math/big reduction and comparison). The trailing comment is the accepted
// try-and-increment counter that commit reported.
var hashGolden = []string{
	"2b52e92af58bd16a0dede4f8670049c46c8ed98f86d526a3c830a5ab4866dd5f", // 0: len 0, counter 1
	"2a93ef5b8e630fbc75dbe4c4fef438223a6e2eeb668a6f08e11b303a26d4ceaa", // 1: len 7, counter 0
	"20c700bb271d59af84a70e00400923f370acfb08c4bf95c4f2ab9d96e4a6b9f8", // 2: len 14, counter 0
	"2420ab63928ef0167cf3adaa0ccba8ccfbcfab2a196d4b93bf93d8e549fae596", // 3: len 21, counter 1
	"0d790c4ec4c69e7f538d54eb896ec6963b608e4775467c0cc0da51db838622e4", // 4: len 28, counter 1
	"23714580c2a783f4879c5a803aef14687cd8d7321c98ad9dc636ea1d44398c87", // 5: len 35, counter 1
	"0cef8d191ed4d4dc88497f6868079ebafd3867f59bf107d423f8bb40db9f8db1", // 6: len 42, counter 0
	"845598a591fe8e81ae51e1699f70d8db835e45deae6b1c23b55cf9cefe6db788", // 7: len 49, counter 1
	"1f2f1121f77f942c76ee233b6547553b159ec66d00f546952a46a2770936a403", // 8: len 56, counter 0
	"a7611f5dcf740464d2df2e1975c1fdc9e3b7008a5562bfe98008bd5ae34684d5", // 9: len 63, counter 0
	"ad911130a13bf7ee859a7d951cecf983a5daaa06bf9349597ab10d7ec60c2a5c", // 10: len 70, counter 0
	"9866cdc5a07d776be23aec36ff2ed7c75a021309be042ebf6bf6d60048851256", // 11: len 77, counter 4
	"15a983ad0b263a7fd3c123fd89cbd166f2dbaa046b7e34ff35438795474937f8", // 12: len 84, counter 0
	"a5c6918a45d8402f26ec661f2cd8254169f85b53c10eff8f02b912feb416b292", // 13: len 91, counter 1
	"23d2a16102b072601323ecb56dee9c110d41f9737950d62643a15a261fedfb0a", // 14: len 98, counter 0
	"a2f31250610ad8e91fdacc935e0a8cf4fe7ee3a8279fbf46cc8d031895f2bd5c", // 15: len 105, counter 0
	"2508a32da88de1c35731cec03ae7e8c1b440b071712fa265bbea291ab0c3155a", // 16: len 112, counter 1
	"0fae88ca599e568994fc52894cc8d5580d35b2f4c5d1ac9d79da187825301c46", // 17: len 119, counter 2
	"1b7d1f7f9bad85ff26eb62f05abf75fd2909a01929a3802200e3ef3967e7552d", // 18: len 126, counter 1
	"a80ab4680836dd88c2e69726a690008cd1753f23ef4298500e944568ec7b9a93", // 19: len 2, counter 0
	"a533e175c60abf10fb35ecb32721c92ade3add2e620369fb51b2e01e377524bb", // 20: len 9, counter 2
	"124af36bf75b196769db1a0e6d4345ddde6bf68f2d819d78358f0113fc90cc62", // 21: len 16, counter 0
	"9879c25c8f0494dc6d40b8ea3c6a6e9cc154913695bac56b4fc700fb9fff9506", // 22: len 23, counter 0
	"292b2263cf993591cc6ce5f2622720323a037b8d05a0f24216b926e3b5b69efb", // 23: len 30, counter 2
	"1326ba80818da72c651ad24d633521a990b4d38dae8f91e1926500b04fbe02ec", // 24: len 37, counter 0
	"09a974116098dc3981254eb6ae48c2abf8a97896a8fe886b6d90719a09f7f91e", // 25: len 44, counter 0
	"9e0a31a5d55dd48fefd2c96680aee2979b4fdd5f1849965c9adea1cd61371807", // 26: len 51, counter 0
	"19f71eccbe7d0f9b049e136fee1d6808047119dbee42d4ff6c54607a2cc6272a", // 27: len 58, counter 0
	"83cff18615700ba936473c3193d2e0cbf71df65695da5239a72f4522a2d0574f", // 28: len 65, counter 0
	"9fb9e00bf11f3a51729a3de7614d4ee6c917f27e51911101de9ffae335a1db2a", // 29: len 72, counter 5
	"09acf0965518bf57e7396187ae240998758991f91f50d2e6e61bd2513ee40fde", // 30: len 79, counter 0
	"301284a64dceffb81e91713d632a5c3039efc6784cace3740656d4124730caaf", // 31: len 86, counter 0
	"8fdd621316f545da03f6a620bebe3a6d638a89ba91d96f44a0fcf155239c1236", // 32: len 93, counter 1
	"20a242feba3dd0ea9eb231604661f8898cfeb77eedbc6a2f6b682b994b7628f7", // 33: len 100, counter 1
	"0be13b7c7f7c2f582133108844fbe1d1db898af3acf8432cabb7d06c9cf4d911", // 34: len 107, counter 0
	"a03e1e269b4d30dccabe4b23ff1e4e37658dd716c3f113454bce372ba4df5c22", // 35: len 114, counter 0
	"987821112f0b7f10cd5b3b07334cb44137a4805a87f507c6056fb0dccc3c8c96", // 36: len 121, counter 1
	"1010a56d1837d4cb2213cf4e9d575df1ef5ffee1006ea3aec9355c53c512b6cb", // 37: len 128, counter 0
	"88c50ebd532107c824ea6953e3377681f1f9e56e7e93a90e53788fba366bb4a3", // 38: len 4, counter 1
	"2595ea5e233e65d9b328ce7ef40da17a6d6264ddf37aaeba90fec6a0e0ab234d", // 39: len 11, counter 1
	"301a276d24c5fa8a8f78dba000eea14634912e04e6ccb4e445aea04fcbc0abb5", // 40: len 18, counter 0
	"96b2670873336cdbc66ecdb59a4b76cee7162269e0b6100a8d4eaee3bdca4ea6", // 41: len 25, counter 0
	"ac1501b370075eaa6748524cd9e6d7c3fa38d3f9aa6c9a3d7b88572c185da877", // 42: len 32, counter 2
	"91ca14503f1255fd71fb2b4d2cd45cc36a52be99b0424b5990eb2bfa5aebc45d", // 43: len 39, counter 3
	"0e058e77764dc71bb3bc64a54d84b4ce6eff7f5676af7e14b427e74c3164c9f7", // 44: len 46, counter 0
	"adffd8a9d2ecd84426eb9a776a82610fe23991b37f55630e64a779558d7d0610", // 45: len 53, counter 2
	"235a743fe74fd73954b1b037c731850ea6b4d068dd93a75ff003eedf09f2b8f6", // 46: len 60, counter 1
	"98adfc002d996fc19c1f9915e1009957d02cba23dd3723cf4d753ea88456974d", // 47: len 67, counter 1
	"0636c32f2ab7ac450b242f41bb5b93c18117fc6bbb8c744d13defbd8a58d891f", // 48: len 74, counter 1
	"808de4830873235e372130fc27ad6bad929c5b7dc9c2bda65f5aadf87838960b", // 49: len 81, counter 0
	"8a77a543835c4a7b90be5e5b7d4e9137b27d86cea31459eb837e0586e0a4fde4", // 50: len 88, counter 1
	"009f0cc2954a81fdf5ed5df15d2b41343e7c7da74afcc103708286b314c3b8ae", // 51: len 95, counter 0
	"a6a9bba2544fa7105363ec87e105561b36d06deab65f8916f8c0d7e7aed73d25", // 52: len 102, counter 2
	"ae7303983eac0de3ed6b3b50f034cb3cb4b637745670b18dd7d3fa96f8afae97", // 53: len 109, counter 0
	"159edff3476fd2238ec82dca4e063ec6b36a028cb7cedd43dad0a5b6816b417f", // 54: len 116, counter 0
	"2e4524adc30e0eca49ca9940534a65e5977ca31b1a50a6c82d5890993028b585", // 55: len 123, counter 0
	"88a50cc371d35f554f93903d67feed33bfa7dd093af27468d7bc3a9bb9a9d4b9", // 56: len 130, counter 1
	"240fa85e21ea460b65c85467e33b34e03aee1ce994859742accf3627c26efee7", // 57: len 6, counter 1
	"8467ca44f2e741217945421bc38289421dcea43e14acf04c71bd830e3ca5d955", // 58: len 13, counter 5
	"1f99827c9993ba7821f8eb47296a6d542edbf76ea578395c917c53a05f717329", // 59: len 20, counter 1
	"831216a4868d21f31219716074d1722ea8355cac110bc984af3e2d2968ba36fd", // 60: len 27, counter 0
	"b00a66cc09370e25b80bf47e68b0509271ffad16445409979a6e9e03c0cdf3f6", // 61: len 34, counter 1
	"9df1e3d6fcf7f434a8b99e37ac1b7e8604ed25f5f4288e4e8fe7ad9cf2ceeaed", // 62: len 41, counter 1
	"9f96b64d1b01ad329db5147d374372475719d3f5e94b6253cbce07b3a7e8df0d", // 63: len 48, counter 2
	"88765aa2d190f9280ca58f835ce66c68819243c2367145420f4e9bf1940dfd7a", // 64: len 55, counter 0
	"297b15f8306bf619d090e52ed5328b516dd549ae8ab99552cb9e913909add6f1", // 65: len 62, counter 5
	"94e25ddd40bafc21a8bceba3c08a98b1f95b6a7a0f1a00ae6fbe2b0ce421b9fd", // 66: len 69, counter 0
	"a7fdb0a4aa440061e8140b4f16d2b9f4a28826623a38dd2e8c8fc33e35b4bc05", // 67: len 76, counter 1
	"ae698ce4790b97383283d73b93c7c26a8d5be94be9df3b99681a91a3ea9efc90", // 68: len 83, counter 1
	"ab54168133aebb14dedc46ce83e96a2365f55c5ea312588b1251ec43516ca351", // 69: len 90, counter 2
	"87e5093b215a450d7b21cf844871c70146411458e9d3515ca6191b378817cdcb", // 70: len 97, counter 0
	"149e41193a8b878a1493975ad04286563b1770c12298f3cc2139905c95653e23", // 71: len 104, counter 2
	"08b43b9a20181f7316d3e32dcc9e2c974c1ebf62c1deeb6ba26b0beb0b64a856", // 72: len 111, counter 0
	"92d23e2566e37d6f4c183d3f7428598d7e70e9e10bd99f94c0476d891e16a001", // 73: len 118, counter 0
	"1905a07b7cecf849b306b7f162434998226b632853c8e2aadd468998673b9200", // 74: len 125, counter 0
	"80802637ea1fa83f69ef53c42c46a3fe5af0998ca80a923dd1c036d732c07f5b", // 75: len 1, counter 4
	"096009117ae4a32c6708cd0856b7b05e94ed1700e948ba581d29987b378ab042", // 76: len 8, counter 0
	"8dbb583ba935fdcae3c19d912fa3e0f790ba327c7de744f4855a2697e781c310", // 77: len 15, counter 0
	"1b8d605205607fb2191705cad481c988f1023109ea398970a8f7314e02ae8b7f", // 78: len 22, counter 0
	"948e2fbbc0c856dba208203d39c128718cfa8673b34b183b2d269e473ee2c294", // 79: len 29, counter 0
	"a69504c987faa31412d1fa4655cc8866b5474dd4c70798449b5c4ccd94c1de86", // 80: len 36, counter 0
	"83318eb74054a98b00c929216bd608895bdae4b9deb7b2edcc3a00eb07846e5b", // 81: len 43, counter 0
	"11a11314d456a1c232d54460403d68ef59aba35a41e47c56deadc70bec2a81c9", // 82: len 50, counter 2
	"8a52b6193adaa0fb611bc6da757f778c862feb1dccf910e6b409fcdda6cfabc1", // 83: len 57, counter 5
	"0c098e4fd70933a4e4726f31124f5e0208671d1f8175feffb551155f2154edc4", // 84: len 64, counter 1
	"9adfa21d2372acc7621de77c5306a1283923cab989d6ccb814e8e9ae6835eed0", // 85: len 71, counter 0
	"9fbdd5c9d6a98eec4db87d41ccb5c90a936b9c56f9d7ccf7460846988a7e0c69", // 86: len 78, counter 0
	"915bb0f5c2e65e14738464bac7cf0c7114f98819f8204c1126b0b739c0fdbdcd", // 87: len 85, counter 2
	"89f1bc825c192ea882e2ef5c20298b818949960daacc8e7fe252c71af9e90dc3", // 88: len 92, counter 0
	"9da12ef1fd21fe892832bb1dd08690855e9ba0006e1af14b471b0100801dcc2b", // 89: len 99, counter 0
	"8ce6f4804b00402ed210d32b18a6c05c9506bbbc94aa8919cdca0c3af730f7a2", // 90: len 106, counter 0
	"9816d603bbfdcb6fe1f4002fd93dc40c2d80bb44e3605941cb8f0cea92aaa0ae", // 91: len 113, counter 1
	"9bff382ed3ba31e120a588ff59889c66ef44532215f0ebd13b71221be4b56cf0", // 92: len 120, counter 0
	"8220f1c419bd210c8bae947854aca7b86c136e02bfe2c4aa58b2d41c8b9b6445", // 93: len 127, counter 0
	"08f4b66dfb4ff800103e0683c1fe7085c94c759aa814f3a1ba9eb6ad23ae6b16", // 94: len 3, counter 0
	"189620f157e81b5cae219849d9d67be9cec5db9a6c0025f51df3c508369f36ee", // 95: len 10, counter 1
}

// hashToG1Ref is try-and-increment written against math/big only: the
// specification HashToG1 must keep matching, and the source of the accepted
// counter.
func hashToG1Ref(data []byte) (uncompressed []byte, counter uint32) {
	for ; ; counter++ {
		var ctr [4]byte
		binary.BigEndian.PutUint32(ctr[:], counter)
		var wide []byte
		for half := byte(0); half < 2; half++ {
			h := sha256.New()
			h.Write([]byte{0x01, half})
			h.Write(ctr[:])
			h.Write(data)
			wide = h.Sum(wide)
		}
		x := new(big.Int).SetBytes(wide)
		x.Mod(x, pBig)
		y2 := new(big.Int).Exp(x, big.NewInt(3), pBig)
		y2.Add(y2, curveB).Mod(y2, pBig)
		y := new(big.Int).ModSqrt(y2, pBig)
		if y == nil {
			continue
		}
		if ny := new(big.Int).Sub(pBig, y); ny.Cmp(y) < 0 {
			y = ny
		}
		uncompressed = make([]byte, g1UncompressedSize)
		x.FillBytes(uncompressed[:32])
		y.FillBytes(uncompressed[32:])
		return uncompressed, counter
	}
}

func TestHashToG1GoldenSet(t *testing.T) {
	if len(hashGolden) < 64 {
		t.Fatalf("golden set has %d entries, want >= 64", len(hashGolden))
	}
	late := 0
	for i, want := range hashGolden {
		in := hashGoldenInput(i)
		got := HashToG1(in)
		if hex.EncodeToString(got.MarshalCompressed()) != want {
			t.Errorf("input %d: HashToG1 drifted from the golden point", i)
		}
		ref, counter := hashToG1Ref(in)
		if !bytes.Equal(got.Marshal(), ref) {
			t.Errorf("input %d: HashToG1 disagrees with the math/big reference", i)
		}
		if counter >= 3 {
			late++
		}
	}
	if late < 4 {
		t.Fatalf("only %d golden inputs are accepted at counter >= 3", late)
	}
}

// TestHashToG1MatchesReference runs inputs no golden covers, including ones
// too long for HashToG1's stack buffer.
func TestHashToG1MatchesReference(t *testing.T) {
	for i := 0; i < 200; i++ {
		in := bytes.Repeat([]byte(fmt.Sprintf("ref-%d/", i)), 1+i%40)
		ref, _ := hashToG1Ref(in)
		if got := HashToG1(in).Marshal(); !bytes.Equal(got, ref) {
			t.Fatalf("input %d: HashToG1 disagrees with the math/big reference", i)
		}
	}
}

func BenchmarkHashToG1(b *testing.B) {
	tag := make([]byte, 40)
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(tag[32:], uint64(i))
		HashToG1(tag)
	}
}
