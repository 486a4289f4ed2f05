//! No-op `Serialize` / `Deserialize` derives. The NetAlytics crates
//! derive the serde traits on their public types but never serialize
//! through serde (they have their own wire codecs), so the derives only
//! need to accept the input and its `#[serde(...)]` helper attributes.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
